#include "apps/hsg/lattice2d.hpp"

#include <cstring>
#include <stdexcept>

namespace apn::apps::hsg {

Slab2d::Slab2d(int L, int lz, int ly, int z_offset, int y_offset)
    : L_(L), lz_(lz), ly_(ly), z_offset_(z_offset), y_offset_(y_offset) {
  if (L < 2 || lz < 1 || ly < 1)
    throw std::invalid_argument("bad 2-D slab shape");
  spins_.resize(static_cast<std::size_t>(lz + 2) *
                static_cast<std::size_t>(ly + 2) *
                static_cast<std::size_t>(L));
}

Slab2d::Slab2d(const InitialLattice& init, int lz, int ly, int z_offset,
               int y_offset)
    : L_(init.L()), lz_(lz), ly_(ly), z_offset_(z_offset),
      y_offset_(y_offset) {
  if (lz < 1 || ly < 1) throw std::invalid_argument("bad 2-D slab shape");
  const std::size_t row = static_cast<std::size_t>(L_);
  const std::size_t plane = static_cast<std::size_t>(ly + 2) * row;
  spins_.reserve(static_cast<std::size_t>(lz + 2) * plane);
  spins_.resize(plane);  // halo plane 0
  for (int z = 1; z <= lz_; ++z) {
    spins_.resize(spins_.size() + row);  // halo row 0
    for (int y = 1; y <= ly_; ++y)
      init.append_row(lattice_z(z), lattice_y(y), spins_);
    spins_.resize(spins_.size() + row);  // halo row ly + 1
  }
  spins_.resize(spins_.size() + plane);  // halo plane lz + 1
}

void Slab2d::randomize(std::uint64_t seed) {
  const std::shared_ptr<const InitialLattice> init = shared_lattice(L_, seed);
  for (int z = 1; z <= lz_; ++z)
    for (int y = 1; y <= ly_; ++y)
      for (int x = 0; x < L_; ++x)
        at(z, y, x) = init->spin(lattice_z(z), lattice_y(y), x);
}

void Slab2d::update_site(int z, int y, int x) {
  int xp = x + 1 == L_ ? 0 : x + 1;
  int xm = x == 0 ? L_ - 1 : x - 1;
  const Spin& a = at(z, y, xp);
  const Spin& b = at(z, y, xm);
  const Spin& c = at(z, y + 1, x);
  const Spin& d = at(z, y - 1, x);
  const Spin& e = at(z + 1, y, x);
  const Spin& f = at(z - 1, y, x);
  double hx = static_cast<double>(a.x) + b.x + c.x + d.x + e.x + f.x;
  double hy = static_cast<double>(a.y) + b.y + c.y + d.y + e.y + f.y;
  double hz = static_cast<double>(a.z) + b.z + c.z + d.z + e.z + f.z;
  at(z, y, x) = over_relax(at(z, y, x), hx, hy, hz);
}

void Slab2d::update_range(int z0, int z1, int y0, int y1, int parity) {
  for (int z = z0; z <= z1; ++z)
    for (int y = y0; y <= y1; ++y)
      for (int x = first_x(z, y, parity); x < L_; x += 2)
        update_site(z, y, x);
}

void Slab2d::update_interior(int parity) {
  update_range(1, lz_, 1, ly_, parity);
}

void Slab2d::update_boundary(int parity) {
  update_range(1, 1, 1, ly_, parity);  // z-low face
  if (lz_ > 1) update_range(lz_, lz_, 1, ly_, parity);
  // y faces, excluding the z rows already done.
  int z0 = std::min(2, lz_ + 1), z1 = lz_ - 1;
  if (z0 <= z1) {
    update_range(z0, z1, 1, 1, parity);
    if (ly_ > 1) update_range(z0, z1, ly_, ly_, parity);
  }
}

void Slab2d::update_bulk(int parity) {
  if (lz_ > 2 && ly_ > 2) update_range(2, lz_ - 1, 2, ly_ - 1, parity);
}

double Slab2d::owned_energy() const {
  double e = 0.0;
  for (int z = 1; z <= lz_; ++z)
    for (int y = 1; y <= ly_; ++y)
      for (int x = 0; x < L_; ++x) {
        int xp = x + 1 == L_ ? 0 : x + 1;
        const Spin& s = at(z, y, x);
        const Spin& sx = at(z, y, xp);
        const Spin& sy = at(z, y + 1, x);  // halo when y == ly
        const Spin& sz = at(z + 1, y, x);  // halo when z == lz
        e -= static_cast<double>(s.x) * sx.x +
             static_cast<double>(s.y) * sx.y +
             static_cast<double>(s.z) * sx.z;
        e -= static_cast<double>(s.x) * sy.x +
             static_cast<double>(s.y) * sy.y +
             static_cast<double>(s.z) * sy.z;
        e -= static_cast<double>(s.x) * sz.x +
             static_cast<double>(s.y) * sz.y +
             static_cast<double>(s.z) * sz.z;
      }
  return e;
}

namespace {
struct FaceIter {
  int z0, z1, y0, y1;
};
}  // namespace

void Slab2d::pack_face(Face face, int parity,
                       std::vector<std::uint8_t>& out) const {
  FaceIter it{};
  switch (face) {
    case Face::kZlow: it = {1, 1, 1, ly_}; break;
    case Face::kZhigh: it = {lz_, lz_, 1, ly_}; break;
    case Face::kYlow: it = {1, lz_, 1, 1}; break;
    case Face::kYhigh: it = {1, lz_, ly_, ly_}; break;
  }
  out.clear();
  out.reserve(face_parity_bytes(face));
  for (int z = it.z0; z <= it.z1; ++z)
    for (int y = it.y0; y <= it.y1; ++y)
      for (int x = first_x(z, y, parity); x < L_; x += 2) {
        const Spin& s = at(z, y, x);
        const auto* p = reinterpret_cast<const std::uint8_t*>(&s);
        out.insert(out.end(), p, p + sizeof(Spin));
      }
}

void Slab2d::unpack_face(Face face, int parity,
                         std::span<const std::uint8_t> in) {
  FaceIter it{};
  switch (face) {
    case Face::kZlow: it = {0, 0, 1, ly_}; break;
    case Face::kZhigh: it = {lz_ + 1, lz_ + 1, 1, ly_}; break;
    case Face::kYlow: it = {1, lz_, 0, 0}; break;
    case Face::kYhigh: it = {1, lz_, ly_ + 1, ly_ + 1}; break;
  }
  std::size_t pos = 0;
  for (int z = it.z0; z <= it.z1; ++z)
    for (int y = it.y0; y <= it.y1; ++y)
      for (int x = first_x(z, y, parity); x < L_; x += 2) {
        if (pos + sizeof(Spin) > in.size())
          throw std::runtime_error("face payload too short");
        Spin s;
        std::memcpy(&s, in.data() + pos, sizeof(Spin));
        at(z, y, x) = s;
        pos += sizeof(Spin);
      }
}

}  // namespace apn::apps::hsg
