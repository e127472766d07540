#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "apps/hsg/runner.hpp"

namespace apn::apps::hsg {
namespace {

using cluster::Cluster;

// ---------------------------------------------------------------------------
// Lattice physics
// ---------------------------------------------------------------------------

TEST(HsgLattice, SpinsAreUnitVectors) {
  for (int i = 0; i < 100; ++i) {
    Spin s = deterministic_spin(42, i, i * 3, i * 7);
    double norm = static_cast<double>(s.x) * s.x +
                  static_cast<double>(s.y) * s.y +
                  static_cast<double>(s.z) * s.z;
    EXPECT_NEAR(norm, 1.0, 1e-5);
  }
}

TEST(HsgLattice, OverRelaxationPreservesEnergyExactly) {
  // Over-relaxation is micro-canonical: E is invariant per sweep.
  ReferenceLattice lat(8);
  lat.randomize(7);
  double e0 = lat.energy();
  for (int i = 0; i < 10; ++i) lat.sweep();
  double e1 = lat.energy();
  EXPECT_NEAR(e1, e0, std::abs(e0) * 1e-4 + 1e-3);
}

TEST(HsgLattice, SweepChangesSpins) {
  ReferenceLattice lat(8);
  lat.randomize(7);
  Spin before = lat.at(3, 4, 5);
  lat.sweep();
  Spin after = lat.at(3, 4, 5);
  EXPECT_TRUE(before.x != after.x || before.y != after.y ||
              before.z != after.z);
}

TEST(HsgLattice, SpinNormPreservedBySweeps) {
  ReferenceLattice lat(6);
  lat.randomize(11);
  for (int i = 0; i < 5; ++i) lat.sweep();
  for (int z = 0; z < 6; ++z)
    for (int y = 0; y < 6; ++y)
      for (int x = 0; x < 6; ++x) {
        const Spin& s = lat.at(z, y, x);
        double n = static_cast<double>(s.x) * s.x +
                   static_cast<double>(s.y) * s.y +
                   static_cast<double>(s.z) * s.z;
        ASSERT_NEAR(n, 1.0, 1e-3);
      }
}

TEST(HsgSlab, PackUnpackRoundTrip) {
  Slab slab(8, 4, 0);
  slab.randomize(3);
  std::vector<std::uint8_t> buf;
  slab.pack_parity_plane(2, 0, buf);
  EXPECT_EQ(buf.size(), slab.face_parity_bytes(Face::kZlow));
  Slab other(8, 4, 0);
  other.unpack_parity_plane(2, 0, buf);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      const Spin& a = slab.at(2, y, x);
      const Spin& b = other.at(2, y, x);
      if ((0 + 1 + y + x) % 2 == 0) {  // parity of plane z=2 (global z=1)
        EXPECT_EQ(a.x, b.x);
        EXPECT_EQ(a.y, b.y);
      }
    }
}

TEST(HsgSlab, DecompositionMatchesReferenceAfterWarmup) {
  // Two slabs with functionally exchanged halos must evolve exactly like
  // the single reference lattice.
  const int L = 8;
  ReferenceLattice ref(L);
  ref.randomize(5);

  Slab s0(L, L / 2, 0), s1(L, L / 2, L / 2);
  s0.randomize(5);
  s1.randomize(5);
  std::vector<std::uint8_t> buf;
  auto exchange = [&](int parity) {
    // halo plane 0 of s0 <- plane local_z of s1 (global wrap), etc.
    s1.pack_parity_plane(L / 2, parity, buf);
    s0.unpack_parity_plane(0, parity, buf);
    s1.pack_parity_plane(1, parity, buf);
    s0.unpack_parity_plane(L / 2 + 1, parity, buf);
    s0.pack_parity_plane(L / 2, parity, buf);
    s1.unpack_parity_plane(0, parity, buf);
    s0.pack_parity_plane(1, parity, buf);
    s1.unpack_parity_plane(L / 2 + 1, parity, buf);
  };
  exchange(0);
  exchange(1);

  for (int step = 0; step < 3; ++step) {
    ref.sweep();
    for (int parity = 0; parity < 2; ++parity) {
      s0.update_interior(parity);
      s1.update_interior(parity);
      exchange(parity);
    }
  }
  for (int z = 1; z <= L / 2; ++z)
    for (int y = 0; y < L; ++y)
      for (int x = 0; x < L; ++x) {
        ASSERT_EQ(s0.at(z, y, x).x, ref.at(z - 1, y, x).x)
            << "site " << z << "," << y << "," << x;
        ASSERT_EQ(s1.at(z, y, x).x, ref.at(L / 2 + z - 1, y, x).x);
      }
}

// ---------------------------------------------------------------------------
// Initial lattice: one shared table per (L, seed), bit-exact spins
// ---------------------------------------------------------------------------

bool same_bits(const Spin& a, const Spin& b) {
  return std::memcmp(&a, &b, sizeof(Spin)) == 0;
}

// Every site of the table, bit for bit against deterministic_spin.
void expect_table_is_deterministic_spin(const InitialLattice& t) {
  for (int z = 0; z < t.L(); ++z)
    for (int y = 0; y < t.L(); ++y)
      for (int x = 0; x < t.L(); ++x)
        ASSERT_TRUE(same_bits(t.spin(z, y, x),
                              deterministic_spin(t.seed(), z, y, x)))
            << "site " << z << "," << y << "," << x;
}

TEST(SharedLattice, OneKeyReturnsOnePointer) {
  const auto a = shared_lattice(8, 42);
  const auto b = shared_lattice(8, 42);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->L(), 8);
  EXPECT_EQ(a->seed(), 42u);
  expect_table_is_deterministic_spin(*a);
}

TEST(SharedLattice, NewKeyBuildsAFreshTableAndAnOldHolderKeepsItsOwn) {
  const auto base = shared_lattice(8, 42);
  const auto other_seed = shared_lattice(8, 43);
  const auto other_side = shared_lattice(10, 43);
  EXPECT_NE(base.get(), other_seed.get());
  EXPECT_NE(other_seed.get(), other_side.get());
  // The replaced tables are still whole and still their own keys'.
  EXPECT_EQ(base->seed(), 42u);
  expect_table_is_deterministic_spin(*base);
  expect_table_is_deterministic_spin(*other_seed);
  EXPECT_EQ(other_side->L(), 10);
  expect_table_is_deterministic_spin(*other_side);
  // Going back to the first key rebuilds it: equal, not the held object.
  const auto again = shared_lattice(8, 42);
  EXPECT_NE(again.get(), base.get());
  expect_table_is_deterministic_spin(*again);
}

TEST(SharedLattice, ConcurrentCallersWaitForOneBuild) {
  shared_lattice(4, 1);  // some other key in the slot
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const InitialLattice>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&got, i] { got[i] = shared_lattice(16, 5); });
  for (auto& t : threads) t.join();
  for (const auto& g : got) EXPECT_EQ(g.get(), got[0].get());
  expect_table_is_deterministic_spin(*got[0]);
}

TEST(SharedLattice, BadSideThrowsAndTheNextCallStillBuilds) {
  EXPECT_THROW(shared_lattice(1, 7), std::invalid_argument);
  EXPECT_THROW(shared_lattice(0, 7), std::invalid_argument);
  EXPECT_THROW(shared_lattice(-4, 7), std::invalid_argument);
  const auto t = shared_lattice(4, 7);
  ASSERT_NE(t, nullptr);
  expect_table_is_deterministic_spin(*t);
}

constexpr std::uint64_t kSeeds[] = {0, 42,
                                    std::numeric_limits<std::uint64_t>::max()};

/// Every rank's slab on a pz x py grid of L = 8, filled by randomize and
/// built from the table: every interior site equals deterministic_spin bit
/// for bit, and a table-built slab's halo layers hold the default spin.
void expect_grid_sites_are_deterministic_spin(int pz, int py) {
  const int L = 8;
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", " << pz << " x "
                                    << py);
    const int lz = L / pz, ly = L / py;
    for (int z_offset = 0; z_offset < L; z_offset += lz)
      for (int y_offset = 0; y_offset < L; y_offset += ly) {
        Slab randomized(L, lz, ly, z_offset, y_offset);
        randomized.randomize(seed);
        const Slab built(*shared_lattice(L, seed), lz, ly, z_offset,
                         y_offset);
        const int zb = built.z_begin(), yb = built.y_begin();
        for (int z = 0; z < lz + 2 * zb; ++z)
          for (int y = 0; y < ly + 2 * yb; ++y)
            for (int x = 0; x < L; ++x) {
              if (z < zb || z >= zb + lz || y < yb || y >= yb + ly) {
                ASSERT_TRUE(same_bits(built.at(z, y, x), Spin{}));
                continue;
              }
              const Spin want = deterministic_spin(
                  seed, z_offset + z - zb, y_offset + y - yb, x);
              ASSERT_TRUE(same_bits(randomized.at(z, y, x), want))
                  << "slab at " << z_offset << "," << y_offset << ", site "
                  << z << "," << y << "," << x;
              ASSERT_TRUE(same_bits(built.at(z, y, x), want))
                  << "slab at " << z_offset << "," << y_offset << ", site "
                  << z << "," << y << "," << x;
            }
      }
  }
}

TEST(InitialLattice, SlabGridSitesAreDeterministicSpinBitwise) {
  // One rank (both axes wrap), the paper's Z slabs, and a one-rank Z axis.
  constexpr int kGrids[][2] = {{1, 1}, {2, 1}, {1, 2}};
  for (const auto& [pz, py] : kGrids) {
    expect_grid_sites_are_deterministic_spin(pz, py);
    if (HasFatalFailure()) return;
  }
}

TEST(InitialLattice, TwoByTwoGridSitesAreDeterministicSpinBitwise) {
  // A brick with four faces and a halo shell on both axes.
  expect_grid_sites_are_deterministic_spin(2, 2);
}

// ---------------------------------------------------------------------------
// Red/black slab kernels against the scalar reference
// ---------------------------------------------------------------------------

TEST(HsgSlab, ZeroFieldKeepsTheSpinBitForBit) {
  // A site whose six neighbors cancel exactly has hh == 0: over_relax
  // returns it unchanged, and the vectorised select must too. Sites at the
  // row start, in the middle and at the wrap end, in both parities, so
  // both the peeled wrap site and the unit-stride run are covered.
  const int L = 8;
  const Spin kept{0.25f, -0.6875f, std::nextafter(0.5f, 1.0f)};
  for (int parity = 0; parity < 2; ++parity)
    for (int x : {0, 1, 3, 4, L - 2, L - 1}) {
      SCOPED_TRACE(testing::Message() << "parity " << parity << " x " << x);
      Slab s(L, L, 0);  // the whole lattice: every axis wraps by index
      s.randomize(17);
      const int z = 2, y = 3 + (parity + z + 3 + x) % 2;
      ASSERT_EQ((z + y + x) % 2, parity);
      s.set(z, y, x, kept);
      const Spin a{0.125f, -0.75f, 0.5f}, b{-0.3f, 0.2f, 0.9f},
          c{0.6f, 0.7f, -0.1f};
      s.set(z, y, (x + 1) % L, a);
      s.set(z, y, (x + L - 1) % L, Spin{-a.x, -a.y, -a.z});
      s.set(z, (y + 1) % L, x, b);
      s.set(z, (y + L - 1) % L, x, Spin{-b.x, -b.y, -b.z});
      s.set((z + 1) % L, y, x, c);
      s.set((z + L - 1) % L, y, x, Spin{-c.x, -c.y, -c.z});
      const Spin before_other = s.at(z, y, (x + 2) % L);
      s.update_interior(parity);
      EXPECT_TRUE(same_bits(s.at(z, y, x), kept));
      // A same-parity site with a nonzero field does move.
      EXPECT_FALSE(same_bits(s.at(z, y, (x + 2) % L), before_other));
    }
}

TEST(HsgSlab, ShortPayloadThrowsBeforeWritingASite) {
  Slab s(8, 4, 0);
  s.randomize(3);
  std::vector<std::uint8_t> face;
  s.pack_face(Face::kZhigh, 1, face);
  std::vector<std::uint8_t> halo_before;
  s.pack_parity_plane(0, 1, halo_before);
  face.pop_back();
  EXPECT_THROW(s.unpack_face(Face::kZlow, 1, face), std::runtime_error);
  std::vector<std::uint8_t> halo_after;
  s.pack_parity_plane(0, 1, halo_after);
  EXPECT_EQ(halo_after, halo_before);
}

TEST(HsgSlab, FacePayloadIsEachRowsBlockAsXThenYThenZ) {
  // The halo wire format: one parity of the face's rows in storage order,
  // each row as [x of L/2 sites | y | z], 12 B per site in all.
  const int L = 8, h = L / 2;
  Slab s(L, 4, 4, 2, 3);
  s.randomize(21);
  for (int parity = 0; parity < 2; ++parity)
    for (Face face : {Face::kZlow, Face::kYhigh}) {
      std::vector<std::uint8_t> buf;
      s.pack_face(face, parity, buf);
      ASSERT_EQ(buf.size(), 4u * h * sizeof(Spin));
      std::vector<float> f(buf.size() / sizeof(float));
      std::memcpy(f.data(), buf.data(), buf.size());
      for (int r = 0; r < 4; ++r) {
        // kZlow: plane 1, rows 1..4; kYhigh: planes 1..4, row 4.
        const int z = face == Face::kZlow ? 1 : 1 + r;
        const int y = face == Face::kZlow ? 1 + r : 4;
        const int gz = 2 + z - 1, gy = 3 + y - 1;
        const int first = (gz + gy + parity) % 2;
        for (int k = 0; k < h; ++k) {
          const Spin want = s.at(z, y, first + 2 * k);
          const float* row = f.data() + static_cast<std::size_t>(r) * 3 * h;
          ASSERT_EQ(row[k], want.x);
          ASSERT_EQ(row[h + k], want.y);
          ASSERT_EQ(row[2 * h + k], want.z);
        }
      }
    }
}

/// A pz x py tiling of an L lattice cut at points drawn from `seed` (so
/// extents of 1 and odd offsets occur), swept three times with face
/// exchanges after every parity, checked site for site against the
/// reference.
void expect_tiling_matches_reference(int L, int pz, int py,
                                     std::uint64_t seed) {
  SplitMix64 rng(seed);
  auto pick = [&rng](int n) { return static_cast<int>(rng.next() % n); };
  // Cut points: `parts` distinct offsets in [0, L), the first one 0.
  auto cuts = [&](int parts) {
    std::vector<int> c{0};
    while (static_cast<int>(c.size()) < parts) {
      const int at = 1 + pick(L - 1);
      if (std::find(c.begin(), c.end(), at) == c.end()) c.push_back(at);
    }
    std::sort(c.begin(), c.end());
    c.push_back(L);
    return c;
  };
  const std::vector<int> zc = cuts(pz), yc = cuts(py);
  const std::uint64_t lattice_seed = rng.next();
  SCOPED_TRACE(testing::Message() << "seed " << seed << ": L " << L << ", "
                                  << pz << " x " << py);

  ReferenceLattice ref(L);
  ref.randomize(lattice_seed);
  const auto init = shared_lattice(L, lattice_seed);
  std::vector<Slab> bricks;
  for (int iz = 0; iz < pz; ++iz)
    for (int iy = 0; iy < py; ++iy) {
      const int lz = zc[iz + 1] - zc[iz], ly = yc[iy + 1] - yc[iy];
      if (pick(2) == 0) {
        bricks.emplace_back(*init, lz, ly, zc[iz], yc[iy]);
      } else {
        bricks.emplace_back(L, lz, ly, zc[iz], yc[iy]);
        bricks.back().randomize(lattice_seed);
      }
    }
  auto brick = [&](int iz, int iy) -> Slab& {
    return bricks[static_cast<std::size_t>(((iz + pz) % pz) * py +
                                           (iy + py) % py)];
  };
  std::vector<std::uint8_t> buf;
  auto exchange = [&](int parity) {
    for (int iz = 0; iz < pz; ++iz)
      for (int iy = 0; iy < py; ++iy) {
        Slab& s = brick(iz, iy);
        auto fill = [&](Face face, const Slab& from) {
          from.pack_face(opposite(face), parity, buf);
          s.unpack_face(face, parity, buf);
        };
        if (pz > 1) {
          fill(Face::kZlow, brick(iz - 1, iy));
          fill(Face::kZhigh, brick(iz + 1, iy));
        }
        if (py > 1) {
          fill(Face::kYlow, brick(iz, iy - 1));
          fill(Face::kYhigh, brick(iz, iy + 1));
        }
      }
  };
  exchange(0);
  exchange(1);
  const bool split = pick(2) == 0;  // boundary + bulk, or interior
  for (int sweep = 0; sweep < 3; ++sweep) {
    ref.sweep();
    for (int parity = 0; parity < 2; ++parity) {
      for (Slab& s : bricks) {
        if (split) {
          s.update_boundary(parity);
          s.update_bulk(parity);
        } else {
          s.update_interior(parity);
        }
      }
      exchange(parity);
    }
  }
  double energy = 0;
  for (const Slab& s : bricks) {
    energy += s.owned_energy();
    for (int z = 0; z < s.lz(); ++z)
      for (int y = 0; y < s.ly(); ++y)
        for (int x = 0; x < L; ++x)
          ASSERT_TRUE(same_bits(s.at(s.z_begin() + z, s.y_begin() + y, x),
                                ref.at(s.z_offset() + z, s.y_offset() + y, x)))
              << "brick at " << s.z_offset() << "," << s.y_offset()
              << ", site " << z << "," << y << "," << x;
  }
  // One brick sums its bonds in the reference's order, bit for bit.
  if (pz * py == 1) {
    EXPECT_EQ(energy, ref.energy());
  } else {
    EXPECT_NEAR(energy, ref.energy(), 1e-9 * L * L * L);
  }
}

TEST(HsgSlab, RandomTilingsMatchReferenceSiteExact) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SplitMix64 rng(seed);
    const int L = 2 * (1 + static_cast<int>(rng.next() % 5));  // 2..10
    const int pz = 1 + static_cast<int>(rng.next() % std::min(4, L));
    const int py = 1 + static_cast<int>(rng.next() % 2);
    expect_tiling_matches_reference(L, pz, py, rng.next());
    if (HasFatalFailure()) return;
  }
}

TEST(HsgSlab, SideTwoMatchesReference) {
  // L = 2: a site's x+1 and x-1 are the same site, and each row is one
  // site per parity, the peeled wrap site alone. The whole lattice, and
  // bricks one plane deep and / or one row wide.
  for (int pz = 1; pz <= 2; ++pz)
    for (int py = 1; py <= 2; ++py)
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        expect_tiling_matches_reference(2, pz, py, seed);
        if (HasFatalFailure()) return;
      }
}

// ---------------------------------------------------------------------------
// Distributed runner (full stack, functional halos)
// ---------------------------------------------------------------------------

TEST(HsgRun, SingleNodeEnergyConserved) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 1, core::ApenetParams{}, false);
  HsgConfig cfg;
  cfg.L = 8;
  cfg.steps = 3;
  cfg.functional = true;
  HsgRun run(*c, cfg);
  HsgMetrics m = run.run();
  EXPECT_NEAR(m.energy_final, m.energy_initial,
              std::abs(m.energy_initial) * 1e-4 + 1e-3);
  EXPECT_GT(m.wall, 0);
}

class HsgModeTest : public ::testing::TestWithParam<CommMode> {};

TEST_P(HsgModeTest, TwoNodeEnergyConservedThroughFullStack) {
  sim::Simulator sim;
  std::unique_ptr<Cluster> c =
      Cluster::make_cluster_i(sim, 2, core::ApenetParams{},
                              GetParam() == CommMode::kIb);
  HsgConfig cfg;
  cfg.L = 8;
  cfg.steps = 2;
  cfg.mode = GetParam();
  cfg.functional = true;
  HsgRun run(*c, cfg);
  HsgMetrics m = run.run();
  EXPECT_NEAR(m.energy_final, m.energy_initial,
              std::abs(m.energy_initial) * 1e-4 + 1e-3);
}

/// Runs L = 8 for two steps on a pz x py grid in `mode`, then checks every
/// rank's interior sites bit for bit against the reference lattice.
void expect_grid_matches_reference(int pz, int py, CommMode mode) {
  sim::Simulator sim;
  std::unique_ptr<Cluster> c = Cluster::make_cluster_i(
      sim, pz * py, core::ApenetParams{}, mode == CommMode::kIb);
  HsgConfig cfg;
  cfg.L = 8;
  cfg.steps = 2;
  cfg.py = py;
  cfg.mode = mode;
  cfg.functional = true;
  HsgRun run(*c, cfg);
  HsgMetrics m = run.run();
  EXPECT_NEAR(m.energy_final, m.energy_initial,
              std::abs(m.energy_initial) * 1e-4 + 1e-3);

  ReferenceLattice ref(cfg.L);
  ref.randomize(cfg.seed);
  for (int i = 0; i < cfg.steps; ++i) ref.sweep();
  for (int rank = 0; rank < pz * py; ++rank) {
    const Slab& s = run.slab(rank);
    ASSERT_EQ(s.lz(), cfg.L / pz);
    ASSERT_EQ(s.ly(), cfg.L / py);
    for (int z = 0; z < s.lz(); ++z)
      for (int y = 0; y < s.ly(); ++y)
        for (int x = 0; x < cfg.L; ++x)
          ASSERT_TRUE(same_bits(s.at(s.z_begin() + z, s.y_begin() + y, x),
                                ref.at(s.z_offset() + z, s.y_offset() + y, x)))
              << "rank " << rank << " site " << z << "," << y << "," << x;
  }
}

TEST_P(HsgModeTest, OneRankMatchesReferenceSiteExact) {
  expect_grid_matches_reference(1, 1, GetParam());
}

TEST_P(HsgModeTest, TwoNodeMatchesReferenceSiteExact) {
  expect_grid_matches_reference(2, 1, GetParam());
}

TEST_P(HsgModeTest, OneByTwoGridMatchesReferenceSiteExact) {
  expect_grid_matches_reference(1, 2, GetParam());
}

TEST_P(HsgModeTest, TwoByTwoGridMatchesReferenceSiteExact) {
  expect_grid_matches_reference(2, 2, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllModes, HsgModeTest,
                         ::testing::Values(CommMode::kP2pOn,
                                           CommMode::kP2pRx,
                                           CommMode::kP2pOff, CommMode::kIb),
                         [](const auto& info) {
                           switch (info.param) {
                             case CommMode::kP2pOn: return "P2pOn";
                             case CommMode::kP2pRx: return "P2pRx";
                             case CommMode::kP2pOff: return "P2pOff";
                             case CommMode::kIb: return "Ib";
                           }
                           return "unknown";
                         });

TEST(HsgRun, FourNodeFunctionalRun) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 4, core::ApenetParams{}, false);
  HsgConfig cfg;
  cfg.L = 8;
  cfg.steps = 2;
  cfg.mode = CommMode::kP2pOn;
  cfg.functional = true;
  HsgRun run(*c, cfg);
  HsgMetrics m = run.run();
  EXPECT_NEAR(m.energy_final, m.energy_initial,
              std::abs(m.energy_initial) * 1e-4 + 1e-3);
}

TEST(HsgRun, TimingModeP2pBeatsStagingAtL64) {
  auto ttot = [](CommMode mode) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_i(sim, 2, core::ApenetParams{}, false);
    HsgConfig cfg;
    cfg.L = 64;
    cfg.steps = 2;
    cfg.mode = mode;
    cfg.functional = false;
    HsgRun run(*c, cfg);
    return run.run().tnet_ps;
  };
  double on = ttot(CommMode::kP2pOn);
  double off = ttot(CommMode::kP2pOff);
  // Small halos (24 KB planes): peer-to-peer must beat staging.
  EXPECT_LT(on, off);
}

TEST(HsgRun, RejectsBadGeometry) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 4, core::ApenetParams{}, false);
  HsgConfig cfg;
  cfg.L = 7;  // odd
  EXPECT_THROW(HsgRun(*c, cfg), std::invalid_argument);
  cfg.L = 6;  // even, but 4 slabs do not divide it
  EXPECT_THROW(HsgRun(*c, cfg), std::invalid_argument);

  // A slab's extent must be in [1, L] and its offset in [0, L), in both
  // constructors: Slab(8, 9, 0) would hold one plane twice.
  const std::shared_ptr<const InitialLattice> init = shared_lattice(8, 1);
  EXPECT_THROW(Slab(8, 9, 0), std::invalid_argument);
  EXPECT_THROW(Slab(8, 0, 0), std::invalid_argument);
  EXPECT_THROW(Slab(8, 4, 8), std::invalid_argument);
  EXPECT_THROW(Slab(8, 4, -1), std::invalid_argument);
  EXPECT_THROW(Slab(8, 4, 9, 0, 0), std::invalid_argument);
  EXPECT_THROW(Slab(8, 4, 4, 0, 8), std::invalid_argument);
  EXPECT_THROW(Slab(8, 4, 4, 0, -4), std::invalid_argument);
  EXPECT_THROW(Slab(*init, 9, 8, 0, 0), std::invalid_argument);
  EXPECT_THROW(Slab(*init, 4, 9, 0, 0), std::invalid_argument);
  EXPECT_THROW(Slab(*init, 4, 8, 8, 0), std::invalid_argument);
  EXPECT_THROW(Slab(*init, 4, 4, 0, -1), std::invalid_argument);
  EXPECT_NO_THROW(Slab(8, 8, 7));
  EXPECT_NO_THROW(Slab(*init, 8, 8, 0, 0));
  // Each row splits into two parity blocks of L/2 sites: L must be even.
  EXPECT_THROW(Slab(7, 7, 0), std::invalid_argument);
  EXPECT_THROW(Slab(9, 3, 0), std::invalid_argument);
  EXPECT_THROW(Slab(3, 1, 3, 0, 0), std::invalid_argument);
  EXPECT_THROW(Slab(*shared_lattice(9, 1), 3, 9, 0, 0),
               std::invalid_argument);
  EXPECT_NO_THROW(Slab(2, 1, 1, 1, 1));
}

}  // namespace
}  // namespace apn::apps::hsg
