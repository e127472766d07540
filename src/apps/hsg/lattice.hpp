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
// Domain decomposition: each rank owns a `Slab`, a Z x Y brick of full-X
// rows. The paper's decomposition is along Z only (a brick as deep in Y
// as the lattice); a Z x Y brick is its multi-dimensional conjecture. The
// 6-point stencil needs faces only, no edge or corner halos, so a phase
// exchanges one parity of each face toward another rank.
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
/// A brick has the two faces of each axis that it does not wrap.
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

/// One rank's part of the lattice: a brick of `lz` planes along Z and `ly`
/// rows along Y, each row the full X extent L, whose first site is global
/// (z_offset, y_offset, 0). An axis whose extent is the whole lattice
/// (extent == L) wraps by index: it has no halo shell and no faces. Any
/// other axis has a halo layer on each side, owned by the neighbor rank,
/// and a face on each side. `Slab(L, local_z, z_offset)` is the paper's Z
/// slab (Y wraps); with local_z == L both axes wrap and one rank holds the
/// whole lattice.
///
/// `at` takes storage coordinates: on a halo axis index 0 and extent + 1
/// are the halo layers and the interior is 1..extent; on a wrapped axis
/// the interior is 0..L-1 (`z_begin`/`y_begin` give the first interior
/// index). A site's parity is (global z + global y + x) mod 2.
///
/// Storage is red/black structure-of-arrays, the checkerboard split of the
/// paper's GPU code. Each row holds two parity blocks, block 0 then block
/// 1, and each block is three arrays of L/2 floats: {x[L/2], y[L/2],
/// z[L/2]}. Site (z, y, x) of parity p is entry x / 2 of row (z, y)'s
/// block p. A parity-p update reads only parity-(1 - p) blocks, so each
/// row is one unit-stride loop. A face payload of one parity is the
/// face's rows in storage order, each row's block copied whole as [x|y|z]:
/// L/2 * 12 B per row, the byte count of L/2 packed `Spin`s.
class Slab {
 public:
  /// A Z slab: local planes [z_offset, z_offset + local_z), all of Y.
  /// Every site starts at {0, 0, 1}.
  Slab(int L, int local_z, int z_offset);
  /// A Z x Y brick. Every site starts at {0, 0, 1}. Throws
  /// std::invalid_argument unless L >= 2 is even (the parity split needs
  /// it), each extent is in [1, L] and each offset in [0, L).
  Slab(int L, int lz, int ly, int z_offset, int y_offset);
  /// The brick of `init`'s lattice: interior sites written once from the
  /// table (as `randomize(init.seed())` would set them), halo layers at
  /// {0, 0, 1}. Throws as the plain constructor does.
  Slab(const InitialLattice& init, int lz, int ly, int z_offset,
       int y_offset);

  int L() const { return L_; }
  int lz() const { return lz_; }
  int ly() const { return ly_; }
  int z_offset() const { return z_offset_; }
  int y_offset() const { return y_offset_; }
  /// Storage index of the first interior plane / row: 1 on a halo axis,
  /// 0 on a wrapped one.
  int z_begin() const { return hz_; }
  int y_begin() const { return hy_; }

  /// Deterministic random unit spins for the *global* lattice: the value
  /// of a site depends only on its global coordinates and the seed, so
  /// different decompositions produce identical initial states. Interior
  /// sites are copied from `shared_lattice(L, seed)`.
  void randomize(std::uint64_t seed);

  Spin at(int z, int y, int x) const {
    const float* b = block(z, y, row_parity(z, y) ^ (x & 1));
    const std::size_t k = static_cast<std::size_t>(x / 2);
    return Spin{b[k], b[h_ + k], b[2 * h_ + k]};
  }
  void set(int z, int y, int x, const Spin& s) {
    float* b = block(z, y, row_parity(z, y) ^ (x & 1));
    const std::size_t k = static_cast<std::size_t>(x / 2);
    b[k] = s.x;
    b[h_ + k] = s.y;
    b[2 * h_ + k] = s.z;
  }

  /// Over-relax every interior site of the given (global) parity.
  void update_interior(int parity);
  /// Sites on the interior layers under the faces (the halo producers).
  void update_boundary(int parity);
  /// Interior minus the boundary layers.
  void update_bulk(int parity);

  /// Bonds owned by this brick: +x, +y and +z from every interior site
  /// (the high-side neighbor may live in a halo). Summed over a complete
  /// decomposition this is the exact lattice energy.
  double owned_energy() const;

  /// Spins of `parity` on the interior layer adjacent to `face`. Throws
  /// std::invalid_argument for a face on a wrapped axis, as do
  /// `unpack_face` and `face_parity_bytes`.
  void pack_face(Face face, int parity, std::vector<std::uint8_t>& out) const;
  /// Unpack a neighbor's payload into the halo layer beyond `face`. Throws
  /// std::runtime_error, before writing a site, if `in` is shorter than
  /// `face_parity_bytes(face)`.
  void unpack_face(Face face, int parity, std::span<const std::uint8_t> in);
  std::size_t face_parity_bytes(Face face) const;

  /// Spins of `parity` in storage plane z (interior rows), packed / unpacked
  /// as `pack_face` does for a Z face. Any plane, halo planes included.
  void pack_parity_plane(int z, int parity,
                         std::vector<std::uint8_t>& out) const;
  void unpack_parity_plane(int z, int parity,
                           std::span<const std::uint8_t> in);

 private:
  /// Storage ranges [z0, z1) x [y0, y1) of whole rows.
  struct Layer {
    int z0, z1, y0, y1;
  };

  /// The one constructor the public ones delegate to: interior rows from
  /// `init`, or {0, 0, 1} when it is null; halo rows {0, 0, 1}.
  Slab(int L, int lz, int ly, int z_offset, int y_offset,
       const InitialLattice* init);

  /// Row (z, y)'s block of `parity`: x[h_], y[h_], z[h_].
  std::size_t block_offset(int z, int y, int parity) const {
    return (static_cast<std::size_t>(z * rows_ + y) * 2 +
            static_cast<std::size_t>(parity)) *
           3 * h_;
  }
  const float* block(int z, int y, int parity) const {
    return data_.get() + block_offset(z, y, parity);
  }
  float* block(int z, int y, int parity) {
    return data_.get() + block_offset(z, y, parity);
  }
  int gz(int z) const { return z + z_offset_ - hz_; }
  int gy(int y) const { return y + y_offset_ - hy_; }
  /// gz / gy wrapped into [0, L).
  int lattice_z(int z) const { return (gz(z) % L_ + L_) % L_; }
  int lattice_y(int y) const { return (gy(y) % L_ + L_) % L_; }
  /// The parity of row (z, y)'s even-x sites; its odd-x sites have the
  /// other one.
  int row_parity(int z, int y) const { return (gz(z) + gy(y)) & 1; }
  /// Write interior row (z, y) from the table.
  void load_row(const InitialLattice& init, int z, int y);
  /// The interior layer next to `face`, or the halo layer beyond it.
  Layer face_layer(Face face, bool halo) const;
  /// Payload bytes of one parity of `l`'s rows.
  std::size_t layer_bytes(const Layer& l) const;
  void update_range(const Layer& l, int parity);
  void pack(const Layer& l, int parity, std::vector<std::uint8_t>& out) const;
  void unpack(const Layer& l, int parity, std::span<const std::uint8_t> in);

  int L_, lz_, ly_, z_offset_, y_offset_;
  int hz_, hy_;    ///< halo depth along Z / Y: 0 on a wrapped axis, else 1
  int rows_;       ///< rows per storage plane: ly + 2 hy
  std::size_t h_;  ///< sites per parity block: L / 2
  /// (lz + 2 hz) x rows_ rows of 2 parity blocks; every site is written
  /// by the constructor, so the buffer starts uninitialized.
  std::unique_ptr<float[]> data_;
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
