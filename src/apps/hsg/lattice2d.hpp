// 2-D (Z x Y) domain decomposition of the Heisenberg lattice — the
// multi-dimensional decomposition the paper's §V-D conjectures about:
// "This advantage could increase for a multi-dimensional domain-
// decomposition, where the size of the exchanged messages shrinks in the
// strong scaling, thanks to more regularly shaped 3D sub-domains."
//
// Each rank owns an (lz x ly x L) brick plus four face-halo shells (low/
// high Z, low/high Y). The 6-point stencil needs faces only — no edge or
// corner halos — so one checkerboard phase exchanges exactly four
// parity-packed faces.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/hsg/lattice.hpp"

namespace apn::apps::hsg {

class Slab2d final : public Subdomain {
 public:
  /// Local brick of `lz` planes and `ly` rows (full X extent `L`),
  /// positioned at global (z_offset, y_offset). Every site starts at
  /// {0, 0, 1}.
  Slab2d(int L, int lz, int ly, int z_offset, int y_offset);
  /// The brick of `init`'s lattice: interior sites written once from the
  /// table (as `randomize(init.seed())` would set them), halo shells at
  /// {0, 0, 1}.
  Slab2d(const InitialLattice& init, int lz, int ly, int z_offset,
         int y_offset);

  int L() const { return L_; }
  int lz() const { return lz_; }
  int ly() const { return ly_; }
  int z_offset() const { return z_offset_; }
  int y_offset() const { return y_offset_; }

  /// z in [0, lz+1], y in [0, ly+1]: 0 and max are halo shells.
  Spin& at(int z, int y, int x) {
    return spins_[idx(z, y, x)];
  }
  const Spin& at(int z, int y, int x) const { return spins_[idx(z, y, x)]; }

  /// Interior sites from `shared_lattice(L, seed)`, as Slab::randomize.
  void randomize(std::uint64_t seed);

  /// Over-relax every interior site of the given (global) parity.
  void update_interior(int parity);
  /// Sites on the four faces of the interior (the halo producers).
  void update_boundary(int parity) override;
  /// Interior minus the boundary faces.
  void update_bulk(int parity) override;

  /// Bonds owned by this brick: +x, and +y/+z from every interior site
  /// (the high-side neighbor may live in a halo). Summed over a complete
  /// decomposition this is the exact lattice energy.
  double owned_energy() const override;

  // ---- halo packing ---------------------------------------------------------
  /// Spins of `parity` on the interior face adjacent to `face`.
  void pack_face(Face face, int parity,
                 std::vector<std::uint8_t>& out) const override;
  /// Unpack a neighbor's face payload into the matching halo shell.
  void unpack_face(Face face, int parity,
                   std::span<const std::uint8_t> in) override;

  std::size_t face_parity_count(Face face) const {
    int cells = (face == Face::kZlow || face == Face::kZhigh) ? ly_ * L_
                                                              : lz_ * L_;
    return static_cast<std::size_t>(cells) / 2;
  }
  std::size_t face_parity_bytes(Face face) const override {
    return face_parity_count(face) * sizeof(Spin);
  }

 private:
  std::size_t idx(int z, int y, int x) const {
    return static_cast<std::size_t>((z * (ly_ + 2) + y) * L_ + x);
  }
  int gz(int z) const { return z + z_offset_ - 1; }
  int gy(int y) const { return y + y_offset_ - 1; }
  /// gz / gy wrapped into [0, L).
  int lattice_z(int z) const { return (gz(z) % L_ + L_) % L_; }
  int lattice_y(int y) const { return (gy(y) % L_ + L_) % L_; }
  /// Site (z, y, x) has parity (global z + global y + x) mod 2, so row
  /// (z, y)'s sites of `parity` (0 or 1) are x = first_x, first_x + 2, ...
  int first_x(int z, int y, int parity) const {
    return ((gz(z) % 2 + 2) + (gy(y) % 2 + 2) + parity) % 2;
  }
  void update_site(int z, int y, int x);
  void update_range(int z0, int z1, int y0, int y1, int parity);

  int L_, lz_, ly_, z_offset_, y_offset_;
  std::vector<Spin> spins_;
};

}  // namespace apn::apps::hsg
