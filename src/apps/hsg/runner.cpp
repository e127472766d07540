#include "apps/hsg/runner.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace apn::apps::hsg {

namespace {
constexpr int kDown = 0;  // toward rank-1 (lower z)
constexpr int kUp = 1;    // toward rank+1 (higher z)
}  // namespace

struct HsgRun::RankState {
  std::unique_ptr<Slab> slab;  // functional mode only
  // Device halo buffers (one per direction).
  cuda::DevPtr send_dev[2] = {0, 0};
  cuda::DevPtr recv_dev[2] = {0, 0};
  // Host bounces (staging modes), in the node's host memory.
  std::uint64_t send_host[2] = {0, 0};
  std::uint64_t recv_host[2] = {0, 0};
  std::vector<std::uint8_t> pack_buf[2];

  Time t_start = 0;
  Time t_end = 0;
  Time boundary_time = 0;
  Time comm_time = 0;
  std::shared_ptr<sim::Gate> ready;
};

HsgRun::HsgRun(cluster::Cluster& cluster, HsgConfig config)
    : cluster_(cluster), cfg_(config), np_(cluster.size()) {
  if (cfg_.L % 2 != 0) throw std::invalid_argument("HSG: L must be even");
  if (cfg_.L % np_ != 0)
    throw std::invalid_argument("HSG: L must be divisible by NP");
  local_z_ = cfg_.L / np_;
  if (cfg_.mode == CommMode::kIb && !cluster_.has_mpi())
    throw std::invalid_argument("HSG: IB mode requires an IB cluster");
  if (cfg_.mode != CommMode::kIb && !cluster_.has_apenet())
    throw std::invalid_argument("HSG: P2P modes require APEnet+");
}

HsgRun::~HsgRun() = default;

const Slab& HsgRun::slab(int rank) const {
  return *ranks_.at(static_cast<std::size_t>(rank))->slab;
}

Time HsgRun::spin_time(int rank) const {
  const gpu::GpuArch& arch = cluster_.node(rank).gpu(0).arch();
  const std::uint64_t local_bytes =
      static_cast<std::uint64_t>(cfg_.L) * cfg_.L * (local_z_ + 2) *
      sizeof(Spin) * 2;  // double-buffered layout
  Time t = arch.spin_update_time;
  if (local_bytes > cfg_.cache_pressure_bytes)
    t = static_cast<Time>(static_cast<double>(t) *
                          cfg_.cache_pressure_factor);
  return t;
}

Time HsgRun::kernel_time(int rank, std::uint64_t sites) const {
  const gpu::GpuArch& arch = cluster_.node(rank).gpu(0).arch();
  double occ = 1.0;
  if (sites > 0 && sites < cfg_.occupancy_knee_sites) {
    occ = std::min(cfg_.occupancy_cap,
                   std::sqrt(static_cast<double>(cfg_.occupancy_knee_sites) /
                             static_cast<double>(sites)));
  }
  return arch.kernel_launch_overhead +
         static_cast<Time>(static_cast<double>(sites) *
                           static_cast<double>(spin_time(rank)) * occ);
}

void HsgRun::unpack_halos(int rank, int parity) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  cuda::Runtime& cuda = cluster_.node(rank).cuda();
  std::vector<std::uint8_t> tmp(static_cast<std::uint64_t>(cfg_.L) * cfg_.L /
                                2 * sizeof(Spin));
  cuda.download(st.recv_dev[kDown], std::as_writable_bytes(std::span(tmp)));
  st.slab->unpack_parity_plane(0, parity, tmp);
  cuda.download(st.recv_dev[kUp], std::as_writable_bytes(std::span(tmp)));
  st.slab->unpack_parity_plane(local_z_ + 1, parity, tmp);
}

sim::Coro HsgRun::exchange_phase(int rank, int parity,
                                 std::shared_ptr<sim::Gate> done) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  const std::uint64_t plane_bytes =
      static_cast<std::uint64_t>(cfg_.L) * cfg_.L / 2 * sizeof(Spin);
  const int down = (rank + np_ - 1) % np_;
  const int up = (rank + 1) % np_;

  if (np_ == 1) {
    // Periodic wrap within the single slab: free on-device copies.
    if (cfg_.functional && st.slab) {
      st.slab->pack_parity_plane(local_z_, parity, st.pack_buf[kDown]);
      st.slab->unpack_parity_plane(0, parity, st.pack_buf[kDown]);
      st.slab->pack_parity_plane(1, parity, st.pack_buf[kUp]);
      st.slab->unpack_parity_plane(local_z_ + 1, parity, st.pack_buf[kUp]);
    }
    done->open();
    co_return;
  }

  // ---- IB / minimpi path ---------------------------------------------------
  if (cfg_.mode == CommMode::kIb) {
    mpi::Rank& mr = cluster_.mpi_rank(rank);
    cuda::Runtime& cuda = cluster_.node(rank).cuda();
    if (cfg_.functional && st.slab) {
      st.slab->pack_parity_plane(1, parity, st.pack_buf[kDown]);
      cuda.upload(st.send_dev[kDown],
                  std::as_bytes(std::span(st.pack_buf[kDown])));
      st.slab->pack_parity_plane(local_z_, parity, st.pack_buf[kUp]);
      cuda.upload(st.send_dev[kUp],
                  std::as_bytes(std::span(st.pack_buf[kUp])));
    }
    const int tag_down = parity * 2 + 0;  // plane heading to lower z
    const int tag_up = parity * 2 + 1;
    mpi::Signal s1 = mr.send(down, st.send_dev[kDown], plane_bytes, tag_down);
    mpi::Signal s2 = mr.send(up, st.send_dev[kUp], plane_bytes, tag_up);
    // Our lower halo (plane 0) arrives from `down`, who sent it "up".
    mpi::Signal r1 = mr.recv(down, st.recv_dev[kDown], plane_bytes, tag_up);
    mpi::Signal r2 = mr.recv(up, st.recv_dev[kUp], plane_bytes, tag_down);
    co_await s1;
    co_await s2;
    co_await r1;
    co_await r2;
    if (cfg_.functional && st.slab) unpack_halos(rank, parity);
    done->open();
    co_return;
  }

  // ---- APEnet+ RDMA paths -----------------------------------------------------
  core::RdmaDevice& rdma = cluster_.rdma(rank);
  cuda::Runtime& cuda = cluster_.node(rank).cuda();
  RankState& dst_down = *ranks_[static_cast<std::size_t>(down)];
  RankState& dst_up = *ranks_[static_cast<std::size_t>(up)];

  // Pack both outgoing parity planes (on-GPU pack, folded into the
  // boundary kernel's cost).
  const int src_plane[2] = {1, local_z_};
  RankState* peers[2] = {&dst_down, &dst_up};
  const int peer_rank[2] = {down, up};
  // Our plane heading down lands in the down-neighbor's *upper* halo slot.
  const int remote_slot[2] = {kUp, kDown};

  std::vector<std::shared_ptr<sim::Gate>> tx_gates;
  const std::uint32_t chunk = cfg_.halo_chunk_bytes;
  const std::uint64_t chunks_per_plane =
      (plane_bytes + chunk - 1) / chunk;
  // Staged TX copies ride an independent stream: the D2H of one plane
  // overlaps the PUTs of the other (the application-level pipelining the
  // paper's code used, which is why P2P=RX slightly beats P2P=ON for
  // these 128 KB-class halos).
  cuda::Stream staging_stream(cuda, 0);

  for (int dir = 0; dir < 2; ++dir) {
    if (cfg_.functional && st.slab)
      st.slab->pack_parity_plane(src_plane[dir], parity, st.pack_buf[dir]);

    std::uint64_t src_addr = 0;
    core::MemType src_type;
    if (cfg_.functional && st.slab)
      cuda.upload(st.send_dev[dir],
                  std::as_bytes(std::span(st.pack_buf[dir])));
    if (cfg_.mode == CommMode::kP2pOn) {
      src_addr = st.send_dev[dir];
      src_type = core::MemType::kGpu;
    } else {
      // Staging for TX: asynchronous cudaMemcpy D2H of the plane.
      co_await staging_stream.memcpy_async(st.send_host[dir],
                                           st.send_dev[dir], plane_bytes);
      src_addr = st.send_host[dir];
      src_type = core::MemType::kHost;
    }

    // Remote target: GPU halo buffer (ON/RX) or host bounce (OFF).
    std::uint64_t remote = cfg_.mode == CommMode::kP2pOff
                               ? peers[dir]->recv_host[remote_slot[dir]]
                               : peers[dir]->recv_dev[remote_slot[dir]];

    for (std::uint64_t off = 0; off < plane_bytes; off += chunk) {
      const std::uint64_t n = std::min<std::uint64_t>(chunk, plane_bytes - off);
      core::RdmaDevice::Put p = rdma.put(
          cluster_.coord(peer_rank[dir]), src_addr + off, n, remote + off,
          src_type, cfg_.functional);
      tx_gates.push_back(p.tx_done);
    }
  }

  // Receive: one RX event per inbound chunk (both neighbors).
  const std::uint64_t expected = 2 * chunks_per_plane;
  for (std::uint64_t i = 0; i < expected; ++i) {
    co_await rdma.events().pop();
  }

  // Staged RX: copy the landed halos up to the GPU.
  if (cfg_.mode == CommMode::kP2pOff) {
    for (int dir = 0; dir < 2; ++dir) {
      co_await cuda.memcpy_sync(st.recv_dev[dir], st.recv_host[dir],
                                plane_bytes);
    }
  }

  if (cfg_.functional && st.slab) unpack_halos(rank, parity);

  // Drain local sends before the buffers are reused next phase.
  for (auto& g : tx_gates) co_await g->wait();
  done->open();
}

sim::Coro HsgRun::rank_main(int rank) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  sim::Simulator& sim = cluster_.simulator();
  const std::uint64_t plane_bytes =
      static_cast<std::uint64_t>(cfg_.L) * cfg_.L / 2 * sizeof(Spin);

  // ---- setup: register halo buffers ------------------------------------
  if (cfg_.mode != CommMode::kIb && np_ > 1) {
    core::RdmaDevice& rdma = cluster_.rdma(rank);
    const bool host_rx = cfg_.mode == CommMode::kP2pOff;
    const bool host_tx = cfg_.mode != CommMode::kP2pOn;
    auto type = [](bool host) {
      return host ? core::MemType::kHost : core::MemType::kGpu;
    };
    for (int dir = 0; dir < 2; ++dir) {
      co_await rdma.register_buffer(
          host_rx ? st.recv_host[dir] : st.recv_dev[dir], plane_bytes,
          type(host_rx));
      co_await rdma.register_buffer(
          host_tx ? st.send_host[dir] : st.send_dev[dir], plane_bytes,
          type(host_tx));
    }
  }

  // All ranks ready before timing starts.
  if (++finished_ == np_) {
    for (auto& r : ranks_) r->ready->open();
  }
  co_await st.ready->wait();
  st.t_start = sim.now();

  const std::uint64_t l2 = static_cast<std::uint64_t>(cfg_.L) * cfg_.L;
  const std::uint64_t boundary_sites =
      (local_z_ == 1 ? 1 : 2) * l2 / 2;
  const std::uint64_t bulk_sites =
      local_z_ > 2 ? static_cast<std::uint64_t>(local_z_ - 2) * l2 / 2 : 0;

  cuda::Stream compute(cluster_.node(rank).cuda(), 0);
  cuda::Stream boundary(cluster_.node(rank).cuda(), 0);

  for (int step = 0; step < cfg_.steps; ++step) {
    for (int parity = 0; parity < 2; ++parity) {
      // Boundary kernel first (its results feed the halo exchange).
      Time tb0 = sim.now();
      cuda::Done bnd = boundary.launch_kernel(
          kernel_time(rank, boundary_sites));
      if (cfg_.functional && st.slab) st.slab->update_boundary(parity);
      co_await bnd;
      st.boundary_time += sim.now() - tb0;

      // Bulk kernel overlaps the exchange.
      cuda::Done blk(sim);
      if (bulk_sites > 0) {
        blk = compute.launch_kernel(kernel_time(rank, bulk_sites));
      } else {
        blk.set({});
      }
      if (cfg_.functional && st.slab) st.slab->update_bulk(parity);

      Time tc0 = sim.now();
      auto comm_done = std::make_shared<sim::Gate>(sim);
      exchange_phase(rank, parity, comm_done);
      co_await comm_done->wait();
      st.comm_time += sim.now() - tc0;
      co_await blk;
    }
  }
  st.t_end = sim.now();
}

HsgMetrics HsgRun::run() {
  sim::Simulator& sim = cluster_.simulator();
  const std::uint64_t plane_bytes =
      static_cast<std::uint64_t>(cfg_.L) * cfg_.L / 2 * sizeof(Spin);

  ranks_.clear();
  finished_ = 0;
  for (int r = 0; r < np_; ++r) {
    auto st = std::make_unique<RankState>();
    st->ready = std::make_shared<sim::Gate>(sim);
    if (cfg_.functional) {
      st->slab = std::make_unique<Slab>(cfg_.L, local_z_, r * local_z_);
      st->slab->randomize(cfg_.seed);
    }
    cuda::Runtime& cuda = cluster_.node(r).cuda();
    pcie::HostMemory& host = cluster_.node(r).hostmem();
    for (int dir = 0; dir < 2; ++dir) {
      st->send_dev[dir] = cuda.malloc_device(0, plane_bytes);
      st->recv_dev[dir] = cuda.malloc_device(0, plane_bytes);
      st->send_host[dir] = host.alloc(plane_bytes);
      st->recv_host[dir] = host.alloc(plane_bytes);
    }
    ranks_.push_back(std::move(st));
  }

  // Functional warm-up: fill halos (both parities) from the neighbors.
  if (cfg_.functional) {
    std::vector<std::uint8_t> tmp;
    for (int r = 0; r < np_; ++r) {
      Slab& s = *ranks_[static_cast<std::size_t>(r)]->slab;
      Slab& below = *ranks_[static_cast<std::size_t>((r + np_ - 1) % np_)]->slab;
      Slab& above = *ranks_[static_cast<std::size_t>((r + 1) % np_)]->slab;
      for (int parity = 0; parity < 2; ++parity) {
        below.pack_parity_plane(below.local_z(), parity, tmp);
        s.unpack_parity_plane(0, parity, tmp);
        above.pack_parity_plane(1, parity, tmp);
        s.unpack_parity_plane(s.local_z() + 1, parity, tmp);
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
