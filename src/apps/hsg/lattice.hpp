// Heisenberg spin glass over-relaxation (the paper's §V-D application).
//
// Spins are classical 3-vectors on an L^3 periodic lattice. One
// over-relaxation step reflects each spin about the local field
// h = sum of its 6 neighbors:  s' = 2 (s.h) h / (h.h) - s.
// The update is applied checkerboard-style (even sites, then odd sites),
// so every site's field is fixed while it updates. Over-relaxation is a
// micro-canonical move: it preserves s.h site-wise and therefore the total
// energy exactly — the key invariant the test suite checks.
//
// Slab decomposition along Z (single-dimension decomposition, as in the
// paper): each rank owns `local_z` interior planes plus two halo planes.
// `Subdomain` is what the distributed runner needs of a rank's part of the
// lattice; Slab2d (lattice2d.hpp) is the Z x Y brick behind the same API.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace apn::apps::hsg {

struct Spin {
  float x = 0, y = 0, z = 1;
};
static_assert(sizeof(Spin) == 12, "paper message sizes assume 12 B spins");

/// Reflect s about h: s' = 2 (s.h) h / (h.h) - s. h == 0 leaves s fixed.
inline Spin over_relax(const Spin& s, double hx, double hy, double hz) {
  double hh = hx * hx + hy * hy + hz * hz;
  if (hh == 0.0) return s;
  double sh = s.x * hx + s.y * hy + s.z * hz;
  double f = 2.0 * sh / hh;
  return Spin{static_cast<float>(f * hx - s.x),
              static_cast<float>(f * hy - s.y),
              static_cast<float>(f * hz - s.z)};
}

/// A face of a rank's sub-lattice, across which it exchanges one halo.
/// A slab has the two Z faces; a Z x Y brick has all four.
enum class Face { kZlow = 0, kZhigh = 1, kYlow = 2, kYhigh = 3 };
constexpr int kFaces = 4;

/// The face of the neighbor that a payload packed from `face` fills.
inline Face opposite(Face face) {
  switch (face) {
    case Face::kZlow: return Face::kZhigh;
    case Face::kZhigh: return Face::kZlow;
    case Face::kYlow: return Face::kYhigh;
    case Face::kYhigh: return Face::kYlow;
  }
  std::abort();  // unreachable: no default, so -Wswitch guards enum growth
}

namespace detail {
/// Site (z, y, x)'s draw under `seed`: u, the z component of its spin
/// (uniform on [-1, 1), Marsaglia), and the site's SplitMix64 stream after
/// that first draw, from which `deterministic_spin` draws the azimuth.
/// `InitialLattice::spin` rebuilds z from u alone.
struct SiteDraw {
  double u;
  SplitMix64 rest;
};
inline SiteDraw site_draw(std::uint64_t seed, int z, int y, int x) {
  std::uint64_t key = seed;
  key = key * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(z) + 1;
  key = key * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(y) + 1;
  key = key * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(x) + 1;
  SplitMix64 sm(key);
  const double u =
      2.0 * (static_cast<double>(sm.next() >> 11) * 0x1.0p-53) - 1.0;
  return SiteDraw{u, sm};
}
}  // namespace detail

/// The spin of global site (z,y,x) under `seed`: the one definition that
/// `InitialLattice` and every `randomize` follow.
Spin deterministic_spin(std::uint64_t seed, int z, int y, int x);

/// The initial lattice of one (L, seed): the x and y of every global
/// site's `deterministic_spin`, 8 B per site. Its z needs no libm call,
/// so `spin` rebuilds it from the site's first draw instead of storing it.
class InitialLattice {
 public:
  /// Throws std::invalid_argument unless L >= 2.
  InitialLattice(int L, std::uint64_t seed);

  int L() const { return L_; }
  std::uint64_t seed() const { return seed_; }

  /// deterministic_spin(seed, z, y, x), bit for bit; each coordinate in
  /// [0, L).
  Spin spin(int z, int y, int x) const {
    const Xy& p = xy_[static_cast<std::size_t>((z * L_ + y) * L_ + x)];
    return Spin{p.x, p.y,
                static_cast<float>(detail::site_draw(seed_, z, y, x).u)};
  }
  /// Append row (z, y)'s L spins to `out`, each constructed in place.
  void append_row(int z, int y, std::vector<Spin>& out) const;

 private:
  struct Xy {
    float x, y;
  };
  int L_;
  std::uint64_t seed_;
  std::vector<Xy> xy_;
};

/// `InitialLattice(L, seed)`, built once and shared read-only. A one-slot
/// memo guarded by a mutex, so threads asking for one key concurrently wait
/// for a single build; a different key replaces the slot (callers holding
/// the old table keep it). Throws what InitialLattice throws.
std::shared_ptr<const InitialLattice> shared_lattice(int L,
                                                     std::uint64_t seed);

/// One rank's part of the lattice, as the distributed runner drives it:
/// checkerboard updates split into boundary and bulk, the owned energy,
/// and one parity of a face packed for (or unpacked from) a neighbor.
class Subdomain {
 public:
  virtual ~Subdomain() = default;

  /// Sites under the faces (the halo producers), then the rest.
  virtual void update_boundary(int parity) = 0;
  virtual void update_bulk(int parity) = 0;
  /// Summed over a complete decomposition: the exact lattice energy.
  virtual double owned_energy() const = 0;

  /// Spins of `parity` on the interior layer adjacent to `face`.
  virtual void pack_face(Face face, int parity,
                         std::vector<std::uint8_t>& out) const = 0;
  /// Unpack a neighbor's payload into the halo beyond `face`.
  virtual void unpack_face(Face face, int parity,
                           std::span<const std::uint8_t> in) = 0;
  virtual std::size_t face_parity_bytes(Face face) const = 0;
};

/// One rank's slab: planes are indexed z in [0, local_z+1], where 0 and
/// local_z+1 are halos owned by the neighbor ranks. Its faces are the two
/// Z faces; asking it for a Y face throws std::invalid_argument.
class Slab final : public Subdomain {
 public:
  /// `z_offset`: global z of local plane 1 (for parity and validation).
  /// Every site starts at {0, 0, 1}.
  Slab(int L, int local_z, int z_offset);
  /// The slab of `init`'s lattice: interior sites written once from the
  /// table (as `randomize(init.seed())` would set them), halo planes at
  /// {0, 0, 1}.
  Slab(const InitialLattice& init, int local_z, int z_offset);

  int L() const { return L_; }
  int local_z() const { return local_z_; }
  int z_offset() const { return z_offset_; }

  /// Deterministic random unit spins for the *global* lattice: the value
  /// of a site depends only on its global coordinates and the seed, so
  /// different decompositions produce identical initial states. Copied
  /// from `shared_lattice(L, seed)`.
  void randomize(std::uint64_t seed);

  Spin& at(int z, int y, int x) {
    return spins_[static_cast<std::size_t>((z * L_ + y) * L_ + x)];
  }
  const Spin& at(int z, int y, int x) const {
    return spins_[static_cast<std::size_t>((z * L_ + y) * L_ + x)];
  }

  /// Over-relax all sites of the given parity in local plane z (1-based
  /// interior plane). Parity is evaluated on *global* coordinates.
  void update_plane(int z, int parity);

  /// Over-relax every interior site of the given parity.
  void update_interior(int parity);
  /// Boundary planes only (z = 1 and z = local_z).
  void update_boundary(int parity) override;
  /// Bulk = interior minus boundary planes.
  void update_bulk(int parity) override;

  /// Energy of all bonds owned by this slab: +x, +y bonds of interior
  /// sites and the z bonds from each interior site to its z+1 neighbor
  /// (halo plane included), plus z bonds from the lower halo into plane 1
  /// are NOT counted (they belong to the neighbor below). Summing over
  /// ranks yields the exact total lattice energy.
  double owned_energy() const override;

  /// Pack the spins of one parity of local plane z into `out` (the halo
  /// payload: L*L/2 spins, 12 B each).
  void pack_parity_plane(int z, int parity, std::vector<std::uint8_t>& out) const;
  /// Unpack a parity-plane payload into halo plane z (0 or local_z+1).
  /// `global_z` is the global coordinate of that halo plane.
  void unpack_parity_plane(int z, int parity, std::span<const std::uint8_t> in);

  /// Number of spins of one parity in one plane.
  std::size_t parity_plane_count() const {
    return static_cast<std::size_t>(L_) * static_cast<std::size_t>(L_) / 2;
  }
  std::size_t parity_plane_bytes() const {
    return parity_plane_count() * sizeof(Spin);
  }

  /// The face API: kZlow is plane 1 (halo 0), kZhigh plane local_z (halo
  /// local_z+1).
  void pack_face(Face face, int parity,
                 std::vector<std::uint8_t>& out) const override;
  void unpack_face(Face face, int parity,
                   std::span<const std::uint8_t> in) override;
  std::size_t face_parity_bytes(Face face) const override;

  const std::vector<Spin>& raw() const { return spins_; }

 private:
  int global_z(int local_plane) const {
    // Halo planes map to the neighbor's global coordinate (periodic).
    return local_plane + z_offset_ - 1;
  }
  /// global_z wrapped into [0, L).
  int lattice_z(int local_plane) const {
    return (global_z(local_plane) % L_ + L_) % L_;
  }
  /// Site (z, y, x) has parity (global z + y + x) mod 2, so row (z, y)'s
  /// sites of `parity` (0 or 1) are x = first_x, first_x + 2, ...
  int first_x(int z, int y, int parity) const {
    return ((global_z(z) % 2 + 2) + y + parity) % 2;
  }
  /// Interior plane next to a Z face, or its halo plane.
  int face_plane(Face face, bool halo) const;

  int L_;
  int local_z_;
  int z_offset_;
  std::vector<Spin> spins_;
};

/// Whole-lattice reference implementation used to validate the
/// decomposed/overlapped version site-by-site. Its `randomize` calls
/// `deterministic_spin` per site, independent of `shared_lattice`.
class ReferenceLattice {
 public:
  explicit ReferenceLattice(int L);
  void randomize(std::uint64_t seed);
  void sweep();  ///< one over-relaxation step: even phase, then odd phase
  double energy() const;
  const Spin& at(int z, int y, int x) const {
    return spins_[static_cast<std::size_t>((z * L_ + y) * L_ + x)];
  }

 private:
  void update_parity(int parity);
  int L_;
  std::vector<Spin> spins_;
};

}  // namespace apn::apps::hsg
