#include "apps/hsg/lattice.hpp"

#include <cmath>
#include <cstring>
#include <iterator>
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

void InitialLattice::append_row(int z, int y, std::vector<Spin>& out) const {
  // The row's spins, computed as they are read: a forward range, so
  // vector::insert sizes it once and constructs each spin in place, with
  // no fill to overwrite and no capacity check per site.
  struct Sites {
    using iterator_category = std::forward_iterator_tag;
    using value_type = Spin;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Spin;
    const InitialLattice* table;
    int z, y, x;
    Spin operator*() const { return table->spin(z, y, x); }
    Sites& operator++() {
      ++x;
      return *this;
    }
    Sites operator++(int) {
      Sites old = *this;
      ++x;
      return old;
    }
    bool operator==(const Sites& o) const { return x == o.x; }
  };
  out.insert(out.end(), Sites{this, z, y, 0}, Sites{this, z, y, L_});
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
/// Throws unless the brick fits the lattice: each extent in [1, L] (the
/// wrap rule needs extent <= L, or a plane would appear twice) and each
/// offset in [0, L).
void check_shape(int L, int lz, int ly, int z_offset, int y_offset) {
  if (L < 2 || lz < 1 || lz > L || ly < 1 || ly > L || z_offset < 0 ||
      z_offset >= L || y_offset < 0 || y_offset >= L)
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
}  // namespace

Slab::Slab(int L, int local_z, int z_offset)
    : Slab(L, local_z, L, z_offset, 0) {}

Slab::Slab(int L, int lz, int ly, int z_offset, int y_offset)
    : L_(L), lz_(lz), ly_(ly), z_offset_(z_offset), y_offset_(y_offset),
      hz_(lz < L ? 1 : 0), hy_(ly < L ? 1 : 0), rows_(ly + 2 * hy_) {
  check_shape(L, lz, ly, z_offset, y_offset);
  spins_.resize(static_cast<std::size_t>(lz + 2 * hz_) *
                static_cast<std::size_t>(rows_) * static_cast<std::size_t>(L));
}

Slab::Slab(const InitialLattice& init, int lz, int ly, int z_offset,
           int y_offset)
    : L_(init.L()), lz_(lz), ly_(ly), z_offset_(z_offset),
      y_offset_(y_offset), hz_(lz < L_ ? 1 : 0), hy_(ly < L_ ? 1 : 0),
      rows_(ly + 2 * hy_) {
  check_shape(L_, lz, ly, z_offset, y_offset);
  const std::size_t row = static_cast<std::size_t>(L_);
  const std::size_t plane = static_cast<std::size_t>(rows_) * row;
  spins_.reserve(static_cast<std::size_t>(lz + 2 * hz_) * plane);
  auto halo = [this](std::size_t sites) {
    spins_.resize(spins_.size() + sites);
  };
  if (hz_) halo(plane);
  for (int z = hz_; z < hz_ + lz_; ++z) {
    if (hy_) halo(row);
    for (int y = hy_; y < hy_ + ly_; ++y)
      init.append_row(lattice_z(z), lattice_y(y), spins_);
    if (hy_) halo(row);
  }
  if (hz_) halo(plane);
}

void Slab::randomize(std::uint64_t seed) {
  // Interior sites from global coordinates; halos are filled by the first
  // exchange.
  const std::shared_ptr<const InitialLattice> init = shared_lattice(L_, seed);
  for (int z = hz_; z < hz_ + lz_; ++z)
    for (int y = hy_; y < hy_ + ly_; ++y)
      for (int x = 0; x < L_; ++x)
        at(z, y, x) = init->spin(lattice_z(z), lattice_y(y), x);
}

void Slab::update_range(const Layer& l, int parity) {
  for (int z = l.z0; z < l.z1; ++z) {
    const int zp = step_up(z, lz_, hz_);
    const int zm = step_down(z, lz_, hz_);
    for (int y = l.y0; y < l.y1; ++y) {
      const int yp = step_up(y, ly_, hy_);
      const int ym = step_down(y, ly_, hy_);
      for (int x = first_x(z, y, parity); x < L_; x += 2) {
        int xp = x + 1 == L_ ? 0 : x + 1;
        int xm = x == 0 ? L_ - 1 : x - 1;
        const Spin& a = at(z, y, xp);
        const Spin& b = at(z, y, xm);
        const Spin& c = at(z, yp, x);
        const Spin& d = at(z, ym, x);
        const Spin& e = at(zp, y, x);
        const Spin& f = at(zm, y, x);
        double hx = static_cast<double>(a.x) + b.x + c.x + d.x + e.x + f.x;
        double hy = static_cast<double>(a.y) + b.y + c.y + d.y + e.y + f.y;
        double hz = static_cast<double>(a.z) + b.z + c.z + d.z + e.z + f.z;
        at(z, y, x) = over_relax(at(z, y, x), hx, hy, hz);
      }
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
  double e = 0.0;
  for (int z = hz_; z < hz_ + lz_; ++z) {
    const int zp = step_up(z, lz_, hz_);  // halo for z == lz on a halo axis
    for (int y = hy_; y < hy_ + ly_; ++y) {
      const int yp = step_up(y, ly_, hy_);
      for (int x = 0; x < L_; ++x) {
        int xp = x + 1 == L_ ? 0 : x + 1;
        const Spin& s = at(z, y, x);
        const Spin& sx = at(z, y, xp);
        const Spin& sy = at(z, yp, x);
        const Spin& sz = at(zp, y, x);
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

void Slab::pack(const Layer& l, int parity,
                std::vector<std::uint8_t>& out) const {
  out.clear();
  out.reserve(static_cast<std::size_t>((l.z1 - l.z0) * (l.y1 - l.y0)) *
              static_cast<std::size_t>(L_) / 2 * sizeof(Spin));
  for (int z = l.z0; z < l.z1; ++z)
    for (int y = l.y0; y < l.y1; ++y)
      for (int x = first_x(z, y, parity); x < L_; x += 2) {
        const Spin& s = at(z, y, x);
        const auto* p = reinterpret_cast<const std::uint8_t*>(&s);
        out.insert(out.end(), p, p + sizeof(Spin));
      }
}

void Slab::unpack(const Layer& l, int parity,
                  std::span<const std::uint8_t> in) {
  std::size_t pos = 0;
  for (int z = l.z0; z < l.z1; ++z)
    for (int y = l.y0; y < l.y1; ++y)
      for (int x = first_x(z, y, parity); x < L_; x += 2) {
        if (pos + sizeof(Spin) > in.size())
          throw std::runtime_error("halo payload too short");
        Spin s;
        std::memcpy(&s, in.data() + pos, sizeof(Spin));
        at(z, y, x) = s;
        pos += sizeof(Spin);
      }
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
  const Layer l = face_layer(face, false);
  return static_cast<std::size_t>((l.z1 - l.z0) * (l.y1 - l.y0)) *
         static_cast<std::size_t>(L_) / 2 * sizeof(Spin);
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
