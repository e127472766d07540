// 2-D (Z x Y) decomposed Heisenberg spin glass: the face halos of a Slab
// split along both axes (the `Slab2d` suite), HsgRun on grids with py > 1,
// and the paper's multi-dimensional conjecture. The all-modes site-exact
// checks of every grid sit in test_hsg.cpp.
#include <gtest/gtest.h>

#include "apps/hsg/runner.hpp"

namespace apn::apps::hsg {
namespace {

using cluster::Cluster;

TEST(Slab2d, OwnedEnergySumsToReferenceEnergy) {
  const int L = 8;
  ReferenceLattice ref(L);
  ref.randomize(9);
  // 2x2 grid of bricks covering the lattice; fill halos from the full
  // lattice, then compare the summed owned energy.
  double total = 0;
  for (int iz = 0; iz < 2; ++iz)
    for (int iy = 0; iy < 2; ++iy) {
      Slab s(L, L / 2, L / 2, iz * L / 2, iy * L / 2);
      s.randomize(9);
      for (int z = 0; z <= L / 2 + 1; ++z)
        for (int y = 0; y <= L / 2 + 1; ++y)
          for (int x = 0; x < L; ++x) {
            int gz = ((z + iz * L / 2 - 1) % L + L) % L;
            int gy = ((y + iy * L / 2 - 1) % L + L) % L;
            s.set(z, y, x, ref.at(gz, gy, x));
          }
      total += s.owned_energy();
    }
  EXPECT_NEAR(total, ref.energy(), std::abs(ref.energy()) * 1e-5 + 1e-6);
}

TEST(Slab2d, PackUnpackFaceRoundTrip) {
  Slab a(8, 4, 4, 0, 0), b(8, 4, 4, 0, 0);
  a.randomize(3);
  std::vector<std::uint8_t> buf;
  for (int f = 0; f < kFaces; ++f) {
    for (int parity = 0; parity < 2; ++parity) {
      a.pack_face(static_cast<Face>(f), parity, buf);
      EXPECT_EQ(buf.size(), a.face_parity_bytes(static_cast<Face>(f)));
    }
  }
  // Round trip through the matching halo of a y-neighbor-like slab.
  Slab c(8, 4, 4, 0, 4);
  a.pack_face(Face::kYhigh, 0, buf);  // a's y=4 row, global y 3
  c.unpack_face(Face::kYlow, 0, buf);  // c's halo y=0, global y 3
  for (int z = 1; z <= 4; ++z)
    for (int x = 0; x < 8; ++x) {
      // parity-0 sites only
      const Spin& sa = a.at(z, 4, x);
      const Spin& sc = c.at(z, 0, x);
      if (((z - 1) % 2 + (3 % 2) + x) % 2 == 0) {
        EXPECT_EQ(sa.x, sc.x);
        EXPECT_EQ(sa.z, sc.z);
      }
    }
}

TEST(Slab2d, BoundaryPlusBulkEqualsInterior) {
  // update_boundary + update_bulk must update exactly the same set of
  // sites as update_interior (no overlap, no gap), on a brick, a Z slab, a
  // slab with a wrapped Z axis and a whole lattice.
  const int L = 8;
  const int shapes[][2] = {{4, 4}, {4, L}, {L, 4}, {L, L}};
  for (const auto& [lz, ly] : shapes) {
    SCOPED_TRACE(testing::Message() << lz << " x " << ly);
    Slab a(L, lz, ly, 0, 0), b(L, lz, ly, 0, 0);
    a.randomize(5);
    b.randomize(5);
    // Fill halos identically (self-wrap of a standalone brick).
    std::vector<std::uint8_t> buf;
    for (auto* s : {&a, &b})
      for (int parity = 0; parity < 2; ++parity) {
        if (lz < L) {
          s->pack_face(Face::kZhigh, parity, buf);
          s->unpack_face(Face::kZlow, parity, buf);
          s->pack_face(Face::kZlow, parity, buf);
          s->unpack_face(Face::kZhigh, parity, buf);
        }
        if (ly < L) {
          s->pack_face(Face::kYhigh, parity, buf);
          s->unpack_face(Face::kYlow, parity, buf);
          s->pack_face(Face::kYlow, parity, buf);
          s->unpack_face(Face::kYhigh, parity, buf);
        }
      }
    a.update_interior(0);
    b.update_boundary(0);
    b.update_bulk(0);
    for (int z = a.z_begin(); z < a.z_begin() + lz; ++z)
      for (int y = a.y_begin(); y < a.y_begin() + ly; ++y)
        for (int x = 0; x < L; ++x)
          ASSERT_EQ(a.at(z, y, x).x, b.at(z, y, x).x)
              << z << "," << y << "," << x;
  }
}

TEST(HsgSlab, FaceApiIsTheZParityPlanes) {
  Slab s(8, 4, 0);
  s.randomize(3);
  std::vector<std::uint8_t> face, plane;
  for (int parity = 0; parity < 2; ++parity) {
    s.pack_face(Face::kZlow, parity, face);
    s.pack_parity_plane(1, parity, plane);
    EXPECT_EQ(face, plane);
    s.pack_face(Face::kZhigh, parity, face);
    s.pack_parity_plane(4, parity, plane);
    EXPECT_EQ(face, plane);
    EXPECT_EQ(face.size(), s.face_parity_bytes(Face::kZhigh));
  }
  s.unpack_face(Face::kZlow, 0, face);
  s.pack_parity_plane(0, 0, plane);
  EXPECT_EQ(plane, face);
  EXPECT_THROW(s.pack_face(Face::kYlow, 0, face), std::invalid_argument);
  EXPECT_THROW(s.face_parity_bytes(Face::kYhigh), std::invalid_argument);
}

TEST(Hsg2dRun, StagedModeFunctional) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 4, core::ApenetParams{}, false);
  HsgConfig cfg;
  cfg.L = 8;
  cfg.steps = 2;
  cfg.py = 2;  // 2 x 2
  cfg.mode = CommMode::kP2pOff;
  cfg.functional = true;
  HsgRun run(*c, cfg);
  HsgMetrics m = run.run();
  EXPECT_NEAR(m.energy_final, m.energy_initial,
              std::abs(m.energy_initial) * 1e-4 + 1e-3);
}

TEST(HsgRun, EightRankGridFunctional) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 8, core::ApenetParams{}, false);
  HsgConfig cfg;
  cfg.L = 8;
  cfg.steps = 2;
  cfg.py = 2;  // 4 x 2
  cfg.functional = true;
  HsgRun run(*c, cfg);
  HsgMetrics m = run.run();
  EXPECT_NEAR(m.energy_final, m.energy_initial,
              std::abs(m.energy_initial) * 1e-4 + 1e-3);
}

TEST(HsgRun, OneRankZAxisWrapsLocally) {
  // A 1 x 2 grid: each rank holds all of Z, which wraps by index inside
  // its slab (no Z halo, no Z faces); only its Y faces cross the network.
  // AllModes/HsgModeTest.OneByTwoGridMatchesReferenceSiteExact checks the
  // sites.
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, core::ApenetParams{}, false);
  HsgConfig cfg;
  cfg.L = 8;
  cfg.steps = 2;
  cfg.py = 2;
  cfg.functional = true;
  HsgRun run(*c, cfg);
  EXPECT_EQ(run.halo_bytes_per_phase(), 2u * 8 * 8 / 2 * sizeof(Spin));
  run.run();
  for (int rank = 0; rank < 2; ++rank) {
    const Slab& s = run.slab(rank);
    EXPECT_EQ(s.lz(), cfg.L);
    EXPECT_EQ(s.z_begin(), 0);
    EXPECT_EQ(s.y_begin(), 1);
    EXPECT_THROW(s.face_parity_bytes(Face::kZlow), std::invalid_argument);
    EXPECT_EQ(s.face_parity_bytes(Face::kYhigh), 8u * 8 / 2 * sizeof(Spin));
  }
}

TEST(HsgRun, HaloVolumeSmallerThan1d) {
  // The conjecture's premise: at NP=8, the 2-D decomposition exchanges
  // less halo data per rank than the 1-D one.
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 8, core::ApenetParams{}, false);
  HsgConfig cfg;
  cfg.L = 64;
  cfg.functional = false;
  const std::uint64_t halo_1d = HsgRun(*c, cfg).halo_bytes_per_phase();
  // 1-D sends 2 * L^2/2 spins per phase regardless of NP.
  EXPECT_EQ(halo_1d, 2ull * 64 * 64 / 2 * sizeof(Spin));
  cfg.py = 2;  // 4 x 2
  EXPECT_LT(HsgRun(*c, cfg).halo_bytes_per_phase(), halo_1d);
}

TEST(HsgRun, RejectsBadGrid) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 4, core::ApenetParams{}, false);
  HsgConfig cfg;
  cfg.py = 3;  // does not divide NP = 4
  EXPECT_THROW(HsgRun(*c, cfg), std::invalid_argument);
  cfg.py = 0;
  EXPECT_THROW(HsgRun(*c, cfg), std::invalid_argument);
  cfg.L = 6;
  cfg.py = 4;  // 1 x 4: 4 does not divide L = 6
  EXPECT_THROW(HsgRun(*c, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace apn::apps::hsg
