#include "apps/hsg/runner2d.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

namespace apn::apps::hsg {

namespace {
/// The face of the neighbor that a payload packed from `face` fills.
Face opposite(Face face) {
  switch (face) {
    case Face::kZlow: return Face::kZhigh;
    case Face::kZhigh: return Face::kZlow;
    case Face::kYlow: return Face::kYhigh;
    case Face::kYhigh: return Face::kYlow;
  }
  return Face::kZlow;
}
}  // namespace

struct Hsg2dRun::RankState {
  std::unique_ptr<Slab2d> slab;
  cuda::DevPtr send_dev[kFaces] = {0, 0, 0, 0};
  cuda::DevPtr recv_dev[kFaces] = {0, 0, 0, 0};
  // Host bounces (P2P=OFF), in the node's host memory.
  std::uint64_t send_host[kFaces] = {0, 0, 0, 0};
  std::uint64_t recv_host[kFaces] = {0, 0, 0, 0};
  std::vector<std::uint8_t> pack_buf[kFaces];

  Time t_start = 0, t_end = 0;
  Time boundary_time = 0, comm_time = 0;
  std::shared_ptr<sim::Gate> ready;
};

Hsg2dRun::Hsg2dRun(cluster::Cluster& cluster, Hsg2dConfig config)
    : cluster_(cluster), cfg_(config), np_(cluster.size()) {
  if (cfg_.pz * cfg_.py != np_)
    throw std::invalid_argument("HSG2D: pz*py must equal cluster size");
  if (cfg_.L % 2 != 0 || cfg_.L % cfg_.pz != 0 || cfg_.L % cfg_.py != 0)
    throw std::invalid_argument("HSG2D: L must be even and divisible");
  if (cfg_.mode != CommMode::kP2pOn && cfg_.mode != CommMode::kP2pOff)
    throw std::invalid_argument("HSG2D supports P2P=ON and P2P=OFF");
  lz_ = cfg_.L / cfg_.pz;
  ly_ = cfg_.L / cfg_.py;
}

Hsg2dRun::~Hsg2dRun() = default;

const Slab2d& Hsg2dRun::slab(int rank) const {
  return *ranks_.at(static_cast<std::size_t>(rank))->slab;
}

std::uint64_t Hsg2dRun::halo_bytes_per_phase() const {
  return 2ull * (static_cast<std::uint64_t>(ly_) + lz_) * cfg_.L / 2 *
         sizeof(Spin);
}

int Hsg2dRun::neighbor(int rank, Face face) const {
  int iz = rank / cfg_.py;
  int iy = rank % cfg_.py;
  switch (face) {
    case Face::kZlow: iz = (iz + cfg_.pz - 1) % cfg_.pz; break;
    case Face::kZhigh: iz = (iz + 1) % cfg_.pz; break;
    case Face::kYlow: iy = (iy + cfg_.py - 1) % cfg_.py; break;
    case Face::kYhigh: iy = (iy + 1) % cfg_.py; break;
  }
  return iz * cfg_.py + iy;
}

Time Hsg2dRun::kernel_time(int rank, std::uint64_t sites) const {
  const gpu::GpuArch& arch = cluster_.node(rank).gpu(0).arch();
  double occ = 1.0;
  if (sites > 0 && sites < cfg_.occupancy_knee_sites) {
    occ = std::min(cfg_.occupancy_cap,
                   std::sqrt(static_cast<double>(cfg_.occupancy_knee_sites) /
                             static_cast<double>(sites)));
  }
  return arch.kernel_launch_overhead +
         static_cast<Time>(static_cast<double>(sites) *
                           static_cast<double>(arch.spin_update_time) * occ);
}

sim::Coro Hsg2dRun::exchange_phase(int rank, int parity,
                                   std::shared_ptr<sim::Gate> done) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  core::RdmaDevice& rdma = cluster_.rdma(rank);
  cuda::Runtime& cuda = cluster_.node(rank).cuda();
  cuda::Stream staging(cuda, 0);

  std::vector<std::shared_ptr<sim::Gate>> tx;
  std::uint64_t expected_events = 0;

  for (int f = 0; f < kFaces; ++f) {
    Face face = static_cast<Face>(f);
    const int peer = neighbor(rank, face);
    RankState& dst = *ranks_[static_cast<std::size_t>(peer)];
    const std::uint64_t bytes = st.slab
                                    ? st.slab->face_parity_bytes(face)
                                    : face_bytes_estimate(face);
    if (cfg_.functional && st.slab)
      st.slab->pack_face(face, parity, st.pack_buf[f]);

    std::uint64_t src_addr;
    core::MemType src_type;
    if (cfg_.functional && st.slab)
      cuda.upload(st.send_dev[f], std::as_bytes(std::span(st.pack_buf[f])));
    if (cfg_.mode == CommMode::kP2pOn) {
      src_addr = st.send_dev[f];
      src_type = core::MemType::kGpu;
    } else {
      co_await staging.memcpy_async(st.send_host[f], st.send_dev[f], bytes);
      src_addr = st.send_host[f];
      src_type = core::MemType::kHost;
    }

    const int remote_slot = static_cast<int>(opposite(face));
    std::uint64_t remote = cfg_.mode == CommMode::kP2pOff
                               ? dst.recv_host[remote_slot]
                               : dst.recv_dev[remote_slot];
    for (std::uint64_t off = 0; off < bytes;
         off += cfg_.halo_chunk_bytes) {
      const std::uint64_t n =
          std::min<std::uint64_t>(cfg_.halo_chunk_bytes, bytes - off);
      auto p = rdma.put(cluster_.coord(peer), src_addr + off, n,
                        remote + off, src_type, cfg_.functional);
      tx.push_back(p.tx_done);
    }
    expected_events += (bytes + cfg_.halo_chunk_bytes - 1) /
                       cfg_.halo_chunk_bytes;
  }

  // Each face arrives from the matching neighbor; chunk counts are
  // symmetric because opposite faces have equal sizes.
  for (std::uint64_t i = 0; i < expected_events; ++i)
    co_await rdma.events().pop();

  if (cfg_.mode == CommMode::kP2pOff) {
    for (int f = 0; f < kFaces; ++f) {
      const std::uint64_t bytes =
          st.slab ? st.slab->face_parity_bytes(static_cast<Face>(f))
                  : face_bytes_estimate(static_cast<Face>(f));
      co_await cuda.memcpy_sync(st.recv_dev[f], st.recv_host[f], bytes);
    }
  }

  if (cfg_.functional && st.slab) {
    std::vector<std::uint8_t> tmp;
    for (int f = 0; f < kFaces; ++f) {
      Face face = static_cast<Face>(f);
      tmp.resize(st.slab->face_parity_bytes(face));
      cuda.download(st.recv_dev[f], std::as_writable_bytes(std::span(tmp)));
      st.slab->unpack_face(face, parity, tmp);
    }
  }

  for (auto& g : tx) co_await g->wait();
  done->open();
}

std::uint64_t Hsg2dRun::face_bytes_estimate(Face face) const {
  int cells = (face == Face::kZlow || face == Face::kZhigh) ? ly_ * cfg_.L
                                                            : lz_ * cfg_.L;
  return static_cast<std::uint64_t>(cells) / 2 * sizeof(Spin);
}

sim::Coro Hsg2dRun::rank_main(int rank) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  sim::Simulator& sim = cluster_.simulator();
  core::RdmaDevice& rdma = cluster_.rdma(rank);

  if (np_ > 1) {
    const bool host = cfg_.mode == CommMode::kP2pOff;
    const core::MemType type =
        host ? core::MemType::kHost : core::MemType::kGpu;
    for (int f = 0; f < kFaces; ++f) {
      const std::uint64_t bytes = face_bytes_estimate(static_cast<Face>(f));
      co_await rdma.register_buffer(host ? st.recv_host[f] : st.recv_dev[f],
                                    bytes, type);
      co_await rdma.register_buffer(host ? st.send_host[f] : st.send_dev[f],
                                    bytes, type);
    }
  }

  if (++ready_count_ == np_)
    for (auto& r : ranks_) r->ready->open();
  co_await st.ready->wait();
  st.t_start = sim.now();

  // Per-phase site counts for the kernel timing model.
  const std::uint64_t interior =
      static_cast<std::uint64_t>(lz_) * ly_ * cfg_.L / 2;
  std::uint64_t boundary =
      (static_cast<std::uint64_t>(std::min(2, lz_)) * ly_ +
       static_cast<std::uint64_t>(std::max(0, lz_ - 2)) *
           std::min(2, ly_)) *
      cfg_.L / 2;
  boundary = std::min(boundary, interior);
  const std::uint64_t bulk = interior - boundary;

  cuda::Stream compute(cluster_.node(rank).cuda(), 0);
  cuda::Stream bstream(cluster_.node(rank).cuda(), 0);

  for (int step = 0; step < cfg_.steps; ++step) {
    for (int parity = 0; parity < 2; ++parity) {
      Time tb0 = sim.now();
      cuda::Done bnd = bstream.launch_kernel(kernel_time(rank, boundary));
      if (cfg_.functional && st.slab) st.slab->update_boundary(parity);
      co_await bnd;
      st.boundary_time += sim.now() - tb0;

      cuda::Done blk(sim);
      if (bulk > 0) {
        blk = compute.launch_kernel(kernel_time(rank, bulk));
      } else {
        blk.set({});
      }
      if (cfg_.functional && st.slab) st.slab->update_bulk(parity);

      Time tc0 = sim.now();
      if (np_ > 1) {
        auto comm_done = std::make_shared<sim::Gate>(sim);
        exchange_phase(rank, parity, comm_done);
        co_await comm_done->wait();
      } else if (cfg_.functional && st.slab) {
        // Periodic self-wrap.
        std::vector<std::uint8_t> tmp;
        for (int f = 0; f < kFaces; ++f) {
          Face face = static_cast<Face>(f);
          st.slab->pack_face(face, parity, tmp);
          st.slab->unpack_face(opposite(face), parity, tmp);
        }
      }
      st.comm_time += sim.now() - tc0;
      co_await blk;
    }
  }
  st.t_end = sim.now();
}

HsgMetrics Hsg2dRun::run() {
  sim::Simulator& sim = cluster_.simulator();
  ranks_.clear();
  ready_count_ = 0;

  for (int r = 0; r < np_; ++r) {
    auto st = std::make_unique<RankState>();
    st->ready = std::make_shared<sim::Gate>(sim);
    const int iz = r / cfg_.py;
    const int iy = r % cfg_.py;
    if (cfg_.functional) {
      st->slab = std::make_unique<Slab2d>(cfg_.L, lz_, ly_, iz * lz_,
                                          iy * ly_);
      st->slab->randomize(cfg_.seed);
    }
    cuda::Runtime& cuda = cluster_.node(r).cuda();
    pcie::HostMemory& host = cluster_.node(r).hostmem();
    for (int f = 0; f < kFaces; ++f) {
      const std::uint64_t bytes = face_bytes_estimate(static_cast<Face>(f));
      st->send_dev[f] = cuda.malloc_device(0, bytes);
      st->recv_dev[f] = cuda.malloc_device(0, bytes);
      st->send_host[f] = host.alloc(bytes);
      st->recv_host[f] = host.alloc(bytes);
    }
    ranks_.push_back(std::move(st));
  }

  // Functional warm-up: fill all four halo shells from the neighbors.
  if (cfg_.functional) {
    std::vector<std::uint8_t> tmp;
    for (int r = 0; r < np_; ++r) {
      Slab2d& mine = *ranks_[static_cast<std::size_t>(r)]->slab;
      for (int f = 0; f < kFaces; ++f) {
        Face face = static_cast<Face>(f);
        // My `face` halo is produced by that neighbor's opposite face.
        Slab2d& theirs =
            *ranks_[static_cast<std::size_t>(neighbor(r, face))]->slab;
        for (int parity = 0; parity < 2; ++parity) {
          theirs.pack_face(opposite(face), parity, tmp);
          mine.unpack_face(face, parity, tmp);
        }
      }
    }
  }

  HsgMetrics m;
  m.functional = cfg_.functional;
  if (cfg_.functional) {
    double e = 0;
    for (auto& st : ranks_) e += st->slab->owned_energy();
    m.energy_initial = e;
  }

  for (int r = 0; r < np_; ++r) rank_main(r);
  sim.run();

  Time wall = 0;
  for (auto& st : ranks_) wall = std::max(wall, st->t_end - st->t_start);
  m.wall = wall;
  const double updates = static_cast<double>(cfg_.steps) * cfg_.L * cfg_.L *
                         static_cast<double>(cfg_.L);
  m.ttot_ps = static_cast<double>(wall) / updates;
  m.tnet_ps = static_cast<double>(ranks_[0]->comm_time) / updates;
  m.tbnd_net_ps =
      static_cast<double>(ranks_[0]->comm_time + ranks_[0]->boundary_time) /
      updates;
  if (cfg_.functional) {
    double e = 0;
    for (auto& st : ranks_) e += st->slab->owned_energy();
    m.energy_final = e;
  }
  return m;
}

}  // namespace apn::apps::hsg
