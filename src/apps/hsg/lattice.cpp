#include "apps/hsg/lattice.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>

namespace apn::apps::hsg {

Spin deterministic_spin(std::uint64_t seed, int z, int y, int x) {
  auto [u, sm] = detail::site_draw(seed, z, y, x);
  // Marsaglia: uniform point on the sphere.
  double phi =
      2.0 * 3.14159265358979323846 *
      (static_cast<double>(sm.next() >> 11) * 0x1.0p-53);
  double r = std::sqrt(std::max(0.0, 1.0 - u * u));
  return Spin{static_cast<float>(r * std::cos(phi)),
              static_cast<float>(r * std::sin(phi)), static_cast<float>(u)};
}

// ---------------------------------------------------------------------------
// InitialLattice
// ---------------------------------------------------------------------------

InitialLattice::InitialLattice(int L, std::uint64_t seed)
    : L_(L), seed_(seed) {
  if (L < 2) throw std::invalid_argument("bad lattice side");
  xy_.reserve(static_cast<std::size_t>(L) * static_cast<std::size_t>(L) *
              static_cast<std::size_t>(L));
  for (int z = 0; z < L; ++z)
    for (int y = 0; y < L; ++y)
      for (int x = 0; x < L; ++x) {
        const Spin s = deterministic_spin(seed, z, y, x);
        xy_.push_back(Xy{s.x, s.y});
      }
}

std::shared_ptr<const InitialLattice> shared_lattice(int L,
                                                     std::uint64_t seed) {
  struct Slot {
    std::mutex mu;
    std::shared_ptr<const InitialLattice> table;
  };
  static Slot slot;
  std::lock_guard lock(slot.mu);
  if (slot.table == nullptr || slot.table->L() != L ||
      slot.table->seed() != seed) {
    // Free the old table before building the next (unless a run still
    // holds it).
    slot.table.reset();
    slot.table = std::make_shared<InitialLattice>(L, seed);
  }
  return slot.table;
}

// ---------------------------------------------------------------------------
// Slab
// ---------------------------------------------------------------------------

namespace {
/// Throws unless the brick fits the lattice: an even L >= 2 (each row
/// splits into two parity blocks of L/2 sites), each extent in [1, L] (the
/// wrap rule needs extent <= L, or a plane would appear twice) and each
/// offset in [0, L).
void check_shape(int L, int lz, int ly, int z_offset, int y_offset) {
  if (L < 2 || L % 2 != 0 || lz < 1 || lz > L || ly < 1 || ly > L ||
      z_offset < 0 || z_offset >= L || y_offset < 0 || y_offset >= L)
    throw std::invalid_argument("bad slab shape");
}

/// Index i's neighbor one step up / down an axis of `extent` interior
/// sites: a wrapped axis (no halo) wraps by index, a halo axis steps into
/// its halo layer.
int step_up(int i, int extent, int halo) {
  return halo == 0 && i + 1 == extent ? 0 : i + 1;
}
int step_down(int i, int extent, int halo) {
  return halo == 0 && i == 0 ? extent - 1 : i - 1;
}

/// Over-relax `n` sites of one parity block whose components lie `h`
/// floats apart: site j is {s[j], s[h + j], s[2h + j]}, and its six
/// neighbors are entry j of xp, xm, yp, ym, zp, zm, laid out alike.
/// `over_relax`'s double arithmetic in its order; its early return for
/// hh == 0 becomes a select in double, which keeps the old spin bit for
/// bit and lets the loop vectorise (the file is built without trapping
/// math, see src/apps/CMakeLists.txt).
void relax(float* __restrict s, const float* __restrict xp,
           const float* __restrict xm, const float* __restrict yp,
           const float* __restrict ym, const float* __restrict zp,
           const float* __restrict zm, std::size_t h, std::size_t n) {
  float* __restrict sy = s + h;
  float* __restrict sz = s + 2 * h;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t jy = h + j, jz = 2 * h + j;
    const double hx = static_cast<double>(xp[j]) + xm[j] + yp[j] + ym[j] +
                      zp[j] + zm[j];
    const double hy = static_cast<double>(xp[jy]) + xm[jy] + yp[jy] +
                      ym[jy] + zp[jy] + zm[jy];
    const double hz = static_cast<double>(xp[jz]) + xm[jz] + yp[jz] +
                      ym[jz] + zp[jz] + zm[jz];
    const double hh = hx * hx + hy * hy + hz * hz;
    const double x = s[j], y = sy[j], z = sz[j];
    const double f = 2.0 * (x * hx + y * hy + z * hz) / hh;
    // All three selects before the first store: a store between them lets
    // GCC turn the rest into a branch that skips the unchanged stores.
    const bool keep = hh == 0.0;
    const double nx = keep ? x : f * hx - x;
    const double ny = keep ? y : f * hy - y;
    const double nz = keep ? z : f * hz - z;
    s[j] = static_cast<float>(nx);
    sy[j] = static_cast<float>(ny);
    sz[j] = static_cast<float>(nz);
  }
}

/// a_i . b_j, two sites in blocks laid out as `relax` reads them, summed
/// x, y, z as `ReferenceLattice::energy` does.
double bond(const float* a, std::size_t i, const float* b, std::size_t j,
            std::size_t h) {
  return static_cast<double>(a[i]) * b[j] +
         static_cast<double>(a[h + i]) * b[h + j] +
         static_cast<double>(a[2 * h + i]) * b[2 * h + j];
}
}  // namespace

Slab::Slab(int L, int local_z, int z_offset)
    : Slab(L, local_z, L, z_offset, 0) {}

Slab::Slab(int L, int lz, int ly, int z_offset, int y_offset)
    : Slab(L, lz, ly, z_offset, y_offset, nullptr) {}

Slab::Slab(const InitialLattice& init, int lz, int ly, int z_offset,
           int y_offset)
    : Slab(init.L(), lz, ly, z_offset, y_offset, &init) {}

Slab::Slab(int L, int lz, int ly, int z_offset, int y_offset,
           const InitialLattice* init)
    : L_(L), lz_(lz), ly_(ly), z_offset_(z_offset), y_offset_(y_offset),
      hz_(lz < L ? 1 : 0), hy_(ly < L ? 1 : 0), rows_(ly + 2 * hy_),
      h_(static_cast<std::size_t>(L / 2)) {
  check_shape(L, lz, ly, z_offset, y_offset);
  const std::size_t floats = block_offset(lz + 2 * hz_, 0, 0);
  data_ = std::make_unique_for_overwrite<float[]>(floats);
  for (int z = 0; z < lz + 2 * hz_; ++z)
    for (int y = 0; y < rows_; ++y) {
      if (init != nullptr && z >= hz_ && z < hz_ + lz && y >= hy_ &&
          y < hy_ + ly) {
        load_row(*init, z, y);
        continue;
      }
      for (int parity = 0; parity < 2; ++parity) {
        float* b = block(z, y, parity);
        std::fill(b, b + 2 * h_, 0.0f);
        std::fill(b + 2 * h_, b + 3 * h_, 1.0f);
      }
    }
}

void Slab::load_row(const InitialLattice& init, int z, int y) {
  const int p = row_parity(z, y);
  float* even = block(z, y, p);
  float* odd = block(z, y, p ^ 1);
  const int tz = lattice_z(z), ty = lattice_y(y);
  for (std::size_t k = 0; k < h_; ++k) {
    const int x = static_cast<int>(2 * k);
    const Spin e = init.spin(tz, ty, x);
    const Spin o = init.spin(tz, ty, x + 1);
    even[k] = e.x;
    even[h_ + k] = e.y;
    even[2 * h_ + k] = e.z;
    odd[k] = o.x;
    odd[h_ + k] = o.y;
    odd[2 * h_ + k] = o.z;
  }
}

void Slab::randomize(std::uint64_t seed) {
  // Interior sites from global coordinates; halos are filled by the first
  // exchange.
  const std::shared_ptr<const InitialLattice> init = shared_lattice(L_, seed);
  for (int z = hz_; z < hz_ + lz_; ++z)
    for (int y = hy_; y < hy_ + ly_; ++y) load_row(*init, z, y);
}

void Slab::update_range(const Layer& l, int parity) {
  const int other = parity ^ 1;
  for (int z = l.z0; z < l.z1; ++z) {
    const int zp = step_up(z, lz_, hz_);
    const int zm = step_down(z, lz_, hz_);
    for (int y = l.y0; y < l.y1; ++y) {
      const int yp = step_up(y, ly_, hy_);
      const int ym = step_down(y, ly_, hy_);
      // Moving one row along y or z flips a site's parity, so every
      // neighbor is in a parity-`other` block: the y and z ones at the
      // site's own entry k, the x ones in this row's other block.
      float* s = block(z, y, parity);
      const float* o = block(z, y, other);
      const float* a = block(z, yp, other);
      const float* b = block(z, ym, other);
      const float* c = block(zp, y, other);
      const float* d = block(zm, y, other);
      // Entry k is x = 2k + f; its x+1 and x-1 are o[k + f] and
      // o[k + f - 1]. Peel off the one site whose x±1 wraps: k = 0 when
      // f = 0, k = h - 1 when f = 1. Each of the rest has x+1 at o[j + 1]
      // and x-1 at o[j], counting j from the first of them, 1 - f.
      const std::size_t f = static_cast<std::size_t>(row_parity(z, y) ^ parity);
      const std::size_t first = 1 - f;
      relax(s + first, o + 1, o, a + first, b + first, c + first, d + first,
            h_, h_ - 1);
      const std::size_t w = f * (h_ - 1);
      relax(s + w, o, o + h_ - 1, a + w, b + w, c + w, d + w, h_, 1);
    }
  }
}

void Slab::update_interior(int parity) {
  update_range({hz_, hz_ + lz_, hy_, hy_ + ly_}, parity);
}

// The boundary is the interior layers under the faces: the Z faces' planes
// (all rows), then the Y faces' rows of the planes between them. The bulk
// is the rest. A wrapped axis has no faces, so all its layers are bulk.
void Slab::update_boundary(int parity) {
  if (hz_) {
    update_range({1, 2, hy_, hy_ + ly_}, parity);
    if (lz_ > 1) update_range({lz_, lz_ + 1, hy_, hy_ + ly_}, parity);
  }
  if (hy_) {
    update_range({2 * hz_, lz_, 1, 2}, parity);
    if (ly_ > 1) update_range({2 * hz_, lz_, ly_, ly_ + 1}, parity);
  }
}

void Slab::update_bulk(int parity) {
  update_range({2 * hz_, lz_, 2 * hy_, ly_}, parity);
}

double Slab::owned_energy() const {
  // Sites in z, y, x order, each row walked as x = 2k (entry k of the
  // row-parity block) then x = 2k + 1 (entry k of the other block).
  double e = 0.0;
  for (int z = hz_; z < hz_ + lz_; ++z) {
    const int zp = step_up(z, lz_, hz_);  // halo for z == lz on a halo axis
    for (int y = hy_; y < hy_ + ly_; ++y) {
      const int yp = step_up(y, ly_, hy_);
      const int p = row_parity(z, y);
      const float* even = block(z, y, p);
      const float* odd = block(z, y, p ^ 1);
      // The next row along y or z has the other row parity.
      const float* y_even = block(z, yp, p ^ 1);
      const float* y_odd = block(z, yp, p);
      const float* z_even = block(zp, y, p ^ 1);
      const float* z_odd = block(zp, y, p);
      for (std::size_t k = 0; k < h_; ++k) {
        const std::size_t kn = k + 1 == h_ ? 0 : k + 1;
        e -= bond(even, k, odd, k, h_);
        e -= bond(even, k, y_even, k, h_);
        e -= bond(even, k, z_even, k, h_);
        e -= bond(odd, k, even, kn, h_);
        e -= bond(odd, k, y_odd, k, h_);
        e -= bond(odd, k, z_odd, k, h_);
      }
    }
  }
  return e;
}

std::size_t Slab::layer_bytes(const Layer& l) const {
  return static_cast<std::size_t>((l.z1 - l.z0) * (l.y1 - l.y0)) * 3 * h_ *
         sizeof(float);
}

void Slab::pack(const Layer& l, int parity,
                std::vector<std::uint8_t>& out) const {
  const std::size_t row = 3 * h_ * sizeof(float);
  out.resize(layer_bytes(l));
  std::uint8_t* p = out.data();
  for (int z = l.z0; z < l.z1; ++z)
    for (int y = l.y0; y < l.y1; ++y, p += row)
      std::memcpy(p, block(z, y, parity), row);
}

void Slab::unpack(const Layer& l, int parity,
                  std::span<const std::uint8_t> in) {
  if (in.size() < layer_bytes(l))
    throw std::runtime_error("halo payload too short");
  const std::size_t row = 3 * h_ * sizeof(float);
  const std::uint8_t* p = in.data();
  for (int z = l.z0; z < l.z1; ++z)
    for (int y = l.y0; y < l.y1; ++y, p += row)
      std::memcpy(block(z, y, parity), p, row);
}

void Slab::pack_parity_plane(int z, int parity,
                             std::vector<std::uint8_t>& out) const {
  pack({z, z + 1, hy_, hy_ + ly_}, parity, out);
}

void Slab::unpack_parity_plane(int z, int parity,
                               std::span<const std::uint8_t> in) {
  unpack({z, z + 1, hy_, hy_ + ly_}, parity, in);
}

Slab::Layer Slab::face_layer(Face face, bool halo) const {
  const bool z_face = face == Face::kZlow || face == Face::kZhigh;
  if ((z_face ? hz_ : hy_) == 0)
    throw std::invalid_argument("a wrapped axis has no faces");
  const int h = halo ? 1 : 0;
  switch (face) {
    case Face::kZlow: return {1 - h, 2 - h, hy_, hy_ + ly_};
    case Face::kZhigh: return {lz_ + h, lz_ + h + 1, hy_, hy_ + ly_};
    case Face::kYlow: return {hz_, hz_ + lz_, 1 - h, 2 - h};
    case Face::kYhigh: return {hz_, hz_ + lz_, ly_ + h, ly_ + h + 1};
  }
  std::abort();  // unreachable: no default, so -Wswitch guards enum growth
}

void Slab::pack_face(Face face, int parity,
                     std::vector<std::uint8_t>& out) const {
  pack(face_layer(face, false), parity, out);
}

void Slab::unpack_face(Face face, int parity,
                       std::span<const std::uint8_t> in) {
  unpack(face_layer(face, true), parity, in);
}

std::size_t Slab::face_parity_bytes(Face face) const {
  return layer_bytes(face_layer(face, false));
}

// ---------------------------------------------------------------------------
// ReferenceLattice
// ---------------------------------------------------------------------------

ReferenceLattice::ReferenceLattice(int L) : L_(L) {
  spins_.resize(static_cast<std::size_t>(L) * L * L);
}

void ReferenceLattice::randomize(std::uint64_t seed) {
  for (int z = 0; z < L_; ++z)
    for (int y = 0; y < L_; ++y)
      for (int x = 0; x < L_; ++x)
        spins_[static_cast<std::size_t>((z * L_ + y) * L_ + x)] =
            deterministic_spin(seed, z, y, x);
}

void ReferenceLattice::update_parity(int parity) {
  auto idx = [this](int z, int y, int x) {
    return static_cast<std::size_t>((z * L_ + y) * L_ + x);
  };
  for (int z = 0; z < L_; ++z) {
    int zp = z + 1 == L_ ? 0 : z + 1;
    int zm = z == 0 ? L_ - 1 : z - 1;
    for (int y = 0; y < L_; ++y) {
      int yp = y + 1 == L_ ? 0 : y + 1;
      int ym = y == 0 ? L_ - 1 : y - 1;
      for (int x = 0; x < L_; ++x) {
        if ((x + y + z) % 2 != parity) continue;
        int xp = x + 1 == L_ ? 0 : x + 1;
        int xm = x == 0 ? L_ - 1 : x - 1;
        const Spin& a = spins_[idx(z, y, xp)];
        const Spin& b = spins_[idx(z, y, xm)];
        const Spin& c = spins_[idx(z, yp, x)];
        const Spin& d = spins_[idx(z, ym, x)];
        const Spin& e = spins_[idx(zp, y, x)];
        const Spin& f = spins_[idx(zm, y, x)];
        double hx = static_cast<double>(a.x) + b.x + c.x + d.x + e.x + f.x;
        double hy = static_cast<double>(a.y) + b.y + c.y + d.y + e.y + f.y;
        double hz = static_cast<double>(a.z) + b.z + c.z + d.z + e.z + f.z;
        Spin& s = spins_[idx(z, y, x)];
        s = over_relax(s, hx, hy, hz);
      }
    }
  }
}

void ReferenceLattice::sweep() {
  update_parity(0);
  update_parity(1);
}

double ReferenceLattice::energy() const {
  auto idx = [this](int z, int y, int x) {
    return static_cast<std::size_t>((z * L_ + y) * L_ + x);
  };
  double e = 0.0;
  for (int z = 0; z < L_; ++z) {
    int zp = z + 1 == L_ ? 0 : z + 1;
    for (int y = 0; y < L_; ++y) {
      int yp = y + 1 == L_ ? 0 : y + 1;
      for (int x = 0; x < L_; ++x) {
        int xp = x + 1 == L_ ? 0 : x + 1;
        const Spin& s = spins_[idx(z, y, x)];
        const Spin& sx = spins_[idx(z, y, xp)];
        const Spin& sy = spins_[idx(z, yp, x)];
        const Spin& sz = spins_[idx(zp, y, x)];
        e -= static_cast<double>(s.x) * sx.x + static_cast<double>(s.y) * sx.y +
             static_cast<double>(s.z) * sx.z;
        e -= static_cast<double>(s.x) * sy.x + static_cast<double>(s.y) * sy.y +
             static_cast<double>(s.z) * sy.z;
        e -= static_cast<double>(s.x) * sz.x + static_cast<double>(s.y) * sz.y +
             static_cast<double>(s.z) * sz.z;
      }
    }
  }
  return e;
}

}  // namespace apn::apps::hsg
