#include "apps/hsg/runner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>

namespace apn::apps::hsg {

namespace {
/// PUT fragmentation of a halo face.
constexpr std::uint32_t kHaloChunkBytes = 128 * 1024;
/// GPU-cache efficiency model: local working set above this derates the
/// per-spin update time (paper: 1471 ps vs 921 ps at L=512 on one GPU,
/// the source of the observed super-linear speedup).
constexpr std::uint64_t kCachePressureBytes = 2500ull << 20;
constexpr double kCachePressureFactor = 1.6;
/// Small-kernel occupancy model: kernels below the knee run at reduced
/// efficiency (occ = min(cap, sqrt(knee/sites))). Calibrated from the
/// paper's NP=1 boundary time (11 ps/spin for 2x65K-site planes implies
/// ~1.5x at 65K sites) — this is what stops L=128 from scaling far.
constexpr std::uint64_t kOccupancyKneeSites = 150000;
constexpr double kOccupancyCap = 3.0;
}  // namespace

/// One halo face of a rank's brick and the buffers its exchange uses.
struct HsgRun::HaloFace {
  Face face = Face::kZlow;
  int peer = 0;             ///< neighbor across the face (may be this rank)
  int peer_slot = 0;        ///< index of opposite(face) in the peer's list
  std::uint64_t bytes = 0;  ///< one parity of the face
  cuda::DevPtr send_dev = 0;
  cuda::DevPtr recv_dev = 0;
  // Host bounces (staging modes), in the node's host memory.
  std::uint64_t send_host = 0;
  std::uint64_t recv_host = 0;
  std::vector<std::uint8_t> pack_buf;
};

struct HsgRun::RankState {
  std::optional<Slab> lattice;  // functional mode only
  std::array<HaloFace, kFaces> face_storage;
  std::span<HaloFace> faces;   ///< the brick's faces, remote ones first
  std::span<HaloFace> remote;  ///< faces toward another rank

  Time t_start = 0;
  Time t_end = 0;
  Time boundary_time = 0;
  Time comm_time = 0;
  std::shared_ptr<sim::Gate> ready;
};

HsgRun::HsgRun(cluster::Cluster& cluster, HsgConfig config)
    : cluster_(cluster), cfg_(config), np_(cluster.size()) {
  if (cfg_.L % 2 != 0) throw std::invalid_argument("HSG: L must be even");
  if (cfg_.py < 1 || np_ % cfg_.py != 0)
    throw std::invalid_argument("HSG: py must divide NP");
  pz_ = np_ / cfg_.py;
  if (cfg_.L % pz_ != 0 || cfg_.L % cfg_.py != 0)
    throw std::invalid_argument("HSG: L must be divisible by pz and py");
  lz_ = cfg_.L / pz_;
  ly_ = cfg_.L / cfg_.py;
  nfaces_ = cfg_.py > 1 ? 4 : 2;
  nremote_ = pz_ > 1 ? nfaces_ : nfaces_ - 2;
  if (cfg_.mode == CommMode::kIb && !cluster_.has_mpi())
    throw std::invalid_argument("HSG: IB mode requires an IB cluster");
  if (cfg_.mode != CommMode::kIb && !cluster_.has_apenet())
    throw std::invalid_argument("HSG: P2P modes require APEnet+");
}

HsgRun::~HsgRun() = default;

const Slab& HsgRun::slab(int rank) const {
  return ranks_.at(static_cast<std::size_t>(rank))->lattice.value();
}

int HsgRun::neighbor(int rank, Face face) const {
  int iz = rank / cfg_.py;
  int iy = rank % cfg_.py;
  switch (face) {
    case Face::kZlow: iz = (iz + pz_ - 1) % pz_; break;
    case Face::kZhigh: iz = (iz + 1) % pz_; break;
    case Face::kYlow: iy = (iy + cfg_.py - 1) % cfg_.py; break;
    case Face::kYhigh: iy = (iy + 1) % cfg_.py; break;
  }
  return iz * cfg_.py + iy;
}

std::uint64_t HsgRun::face_bytes(Face face) const {
  const int rows =
      face == Face::kZlow || face == Face::kZhigh ? ly_ : lz_;
  return static_cast<std::uint64_t>(rows) * cfg_.L / 2 * sizeof(Spin);
}

std::uint64_t HsgRun::halo_bytes_per_phase() const {
  std::uint64_t bytes = 0;
  if (pz_ > 1) bytes += 2 * face_bytes(Face::kZlow);
  if (cfg_.py > 1) bytes += 2 * face_bytes(Face::kYlow);
  return bytes;
}

Time HsgRun::spin_time(int rank) const {
  const gpu::GpuArch& arch = cluster_.node(rank).gpu(0).arch();
  // The brick plus its halo faces, double-buffered.
  std::uint64_t local_bytes =
      static_cast<std::uint64_t>(cfg_.L) * lz_ * ly_ * sizeof(Spin);
  for (int f = 0; f < nfaces_; ++f)
    local_bytes += 2 * face_bytes(static_cast<Face>(f));
  local_bytes *= 2;
  Time t = arch.spin_update_time;
  if (local_bytes > kCachePressureBytes)
    t = static_cast<Time>(static_cast<double>(t) * kCachePressureFactor);
  return t;
}

Time HsgRun::kernel_time(int rank, std::uint64_t sites) const {
  const gpu::GpuArch& arch = cluster_.node(rank).gpu(0).arch();
  double occ = 1.0;
  if (sites > 0 && sites < kOccupancyKneeSites) {
    occ = std::min(kOccupancyCap,
                   std::sqrt(static_cast<double>(kOccupancyKneeSites) /
                             static_cast<double>(sites)));
  }
  return arch.kernel_launch_overhead +
         static_cast<Time>(static_cast<double>(sites) *
                           static_cast<double>(spin_time(rank)) * occ);
}

void HsgRun::unpack_halos(int rank, int parity) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  cuda::Runtime& cuda = cluster_.node(rank).cuda();
  // A face's pack buffer has the face's size and is free once uploaded.
  for (HaloFace& f : st.remote) {
    cuda.download(f.recv_dev, std::as_writable_bytes(std::span(f.pack_buf)));
    st.lattice->unpack_face(f.face, parity, f.pack_buf);
  }
}

sim::Coro HsgRun::exchange_phase(int rank, int parity,
                                 std::shared_ptr<sim::Gate> done) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  cuda::Runtime& cuda = cluster_.node(rank).cuda();

  // Pack every face toward another rank (on-GPU pack, folded into the
  // boundary kernel's cost). A one-rank axis wraps inside the slab.
  if (st.lattice) {
    for (HaloFace& f : st.remote) {
      st.lattice->pack_face(f.face, parity, f.pack_buf);
      cuda.upload(f.send_dev, std::as_bytes(std::span(f.pack_buf)));
    }
  }
  if (st.remote.empty()) {
    done->open();
    co_return;
  }

  // ---- IB / minimpi path ---------------------------------------------------
  if (cfg_.mode == CommMode::kIb) {
    mpi::Rank& mr = cluster_.mpi_rank(rank);
    // A payload's tag names its parity and the face it leaves by; our
    // halo beyond `face` left the neighbor by opposite(face).
    auto tag = [&](Face face) {
      return parity * nfaces_ + static_cast<int>(face);
    };
    std::array<std::optional<mpi::Signal>, kFaces> sent, got;
    for (std::size_t i = 0; i < st.remote.size(); ++i) {
      const HaloFace& f = st.remote[i];
      sent[i] = mr.send(f.peer, f.send_dev, f.bytes, tag(f.face));
    }
    for (std::size_t i = 0; i < st.remote.size(); ++i) {
      const HaloFace& f = st.remote[i];
      got[i] = mr.recv(f.peer, f.recv_dev, f.bytes, tag(opposite(f.face)));
    }
    for (std::size_t i = 0; i < st.remote.size(); ++i) co_await *sent[i];
    for (std::size_t i = 0; i < st.remote.size(); ++i) co_await *got[i];
    if (st.lattice) unpack_halos(rank, parity);
    done->open();
    co_return;
  }

  // ---- APEnet+ RDMA paths -----------------------------------------------------
  core::RdmaDevice& rdma = cluster_.rdma(rank);
  std::vector<std::shared_ptr<sim::Gate>> tx_gates;
  std::uint64_t expected = 0;
  // Staged TX copies ride an independent stream: the D2H of one face
  // overlaps the PUTs of the other (the application-level pipelining the
  // paper's code used, which is why P2P=RX slightly beats P2P=ON for
  // these 128 KB-class halos).
  cuda::Stream staging_stream(cuda, 0);

  for (HaloFace& f : st.remote) {
    std::uint64_t src_addr = f.send_dev;
    core::MemType src_type = core::MemType::kGpu;
    if (cfg_.mode != CommMode::kP2pOn) {
      // Staging for TX: asynchronous cudaMemcpy D2H of the face.
      co_await staging_stream.memcpy_async(f.send_host, f.send_dev,
                                           f.bytes);
      src_addr = f.send_host;
      src_type = core::MemType::kHost;
    }

    // Remote target: GPU halo buffer (ON/RX) or host bounce (OFF).
    const HaloFace& dst =
        ranks_[static_cast<std::size_t>(f.peer)]->faces[f.peer_slot];
    const std::uint64_t remote =
        cfg_.mode == CommMode::kP2pOff ? dst.recv_host : dst.recv_dev;

    for (std::uint64_t off = 0; off < f.bytes; off += kHaloChunkBytes) {
      const std::uint64_t n =
          std::min<std::uint64_t>(kHaloChunkBytes, f.bytes - off);
      core::RdmaDevice::Put p =
          rdma.put(cluster_.coord(f.peer), src_addr + off, n, remote + off,
                   src_type, cfg_.functional);
      tx_gates.push_back(p.tx_done);
    }
    // Opposite faces have equal sizes, so the neighbor sends us as many.
    expected += (f.bytes + kHaloChunkBytes - 1) / kHaloChunkBytes;
  }

  // Receive: one RX event per inbound chunk (all neighbors).
  for (std::uint64_t i = 0; i < expected; ++i) {
    co_await rdma.events().pop();
  }

  // Staged RX: copy the landed halos up to the GPU.
  if (cfg_.mode == CommMode::kP2pOff) {
    for (HaloFace& f : st.remote)
      co_await cuda.memcpy_sync(f.recv_dev, f.recv_host, f.bytes);
  }

  if (st.lattice) unpack_halos(rank, parity);

  // Drain local sends before the buffers are reused next phase.
  for (auto& g : tx_gates) co_await g->wait();
  done->open();
}

sim::Coro HsgRun::rank_main(int rank) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  sim::Simulator& sim = cluster_.simulator();

  // ---- setup: register halo buffers ------------------------------------
  if (cfg_.mode != CommMode::kIb && !st.remote.empty()) {
    core::RdmaDevice& rdma = cluster_.rdma(rank);
    const bool host_rx = cfg_.mode == CommMode::kP2pOff;
    const bool host_tx = cfg_.mode != CommMode::kP2pOn;
    auto type = [](bool host) {
      return host ? core::MemType::kHost : core::MemType::kGpu;
    };
    for (HaloFace& f : st.remote) {
      co_await rdma.register_buffer(host_rx ? f.recv_host : f.recv_dev,
                                    f.bytes, type(host_rx));
      co_await rdma.register_buffer(host_tx ? f.send_host : f.send_dev,
                                    f.bytes, type(host_tx));
    }
  }

  // All ranks ready before timing starts.
  if (++finished_ == np_) {
    for (auto& r : ranks_) r->ready->open();
  }
  co_await st.ready->wait();
  st.t_start = sim.now();

  // Sites of one parity for the kernel timing model: the layers under the
  // faces (a Z layer and a Y layer share their edge rows), and the rest.
  const std::uint64_t z_layers = std::min(2, lz_);
  const std::uint64_t y_layers = std::min(nfaces_ - 2, ly_);
  const std::uint64_t boundary_sites =
      (z_layers * ly_ + (lz_ - z_layers) * y_layers) * cfg_.L / 2;
  const std::uint64_t bulk_sites =
      static_cast<std::uint64_t>(lz_) * ly_ * cfg_.L / 2 - boundary_sites;

  cuda::Stream compute(cluster_.node(rank).cuda(), 0);
  cuda::Stream boundary(cluster_.node(rank).cuda(), 0);

  for (int step = 0; step < cfg_.steps; ++step) {
    for (int parity = 0; parity < 2; ++parity) {
      // Boundary kernel first (its results feed the halo exchange).
      Time tb0 = sim.now();
      cuda::Done bnd = boundary.launch_kernel(
          kernel_time(rank, boundary_sites));
      if (st.lattice) st.lattice->update_boundary(parity);
      co_await bnd;
      st.boundary_time += sim.now() - tb0;

      // Bulk kernel overlaps the exchange.
      cuda::Done blk(sim);
      if (bulk_sites > 0) {
        blk = compute.launch_kernel(kernel_time(rank, bulk_sites));
      } else {
        blk.set({});
      }
      if (st.lattice) st.lattice->update_bulk(parity);

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

  // Every rank lists its faces in one order, each beside its opposite, so
  // a face's slot on the peer is its own index ^ 1. Faces toward another
  // rank lead: with pz = 1 the Z faces wrap onto the rank itself.
  Face order[kFaces] = {Face::kZlow, Face::kZhigh, Face::kYlow, Face::kYhigh};
  if (pz_ == 1) std::rotate(order, order + 2, order + nfaces_);

  // Functional mode: each sub-lattice is built straight from the
  // process's one initial lattice of (L, seed).
  const std::shared_ptr<const InitialLattice> init =
      cfg_.functional ? shared_lattice(cfg_.L, cfg_.seed) : nullptr;
  ranks_.clear();
  finished_ = 0;
  for (int r = 0; r < np_; ++r) {
    auto st = std::make_unique<RankState>();
    st->ready = std::make_shared<sim::Gate>(sim);
    if (init)
      st->lattice.emplace(*init, lz_, ly_, r / cfg_.py * lz_,
                          r % cfg_.py * ly_);
    st->faces = std::span(st->face_storage).first(
        static_cast<std::size_t>(nfaces_));
    st->remote = st->faces.first(static_cast<std::size_t>(nremote_));
    cuda::Runtime& cuda = cluster_.node(r).cuda();
    pcie::HostMemory& host = cluster_.node(r).hostmem();
    for (int i = 0; i < nfaces_; ++i) {
      HaloFace& f = st->faces[static_cast<std::size_t>(i)];
      f.face = order[i];
      f.peer = neighbor(r, f.face);
      f.peer_slot = i ^ 1;
      f.bytes = face_bytes(f.face);
      f.send_dev = cuda.malloc_device(0, f.bytes);
      f.recv_dev = cuda.malloc_device(0, f.bytes);
      f.send_host = host.alloc(f.bytes);
      f.recv_host = host.alloc(f.bytes);
    }
    ranks_.push_back(std::move(st));
  }

  // Functional warm-up: fill every halo (both parities) from the neighbor
  // face that produces it.
  if (cfg_.functional) {
    std::vector<std::uint8_t> tmp;
    for (auto& st : ranks_) {
      for (const HaloFace& f : st->remote) {
        const Slab& theirs =
            *ranks_[static_cast<std::size_t>(f.peer)]->lattice;
        for (int parity = 0; parity < 2; ++parity) {
          theirs.pack_face(opposite(f.face), parity, tmp);
          st->lattice->unpack_face(f.face, parity, tmp);
        }
      }
    }
  }

  HsgMetrics m;
  m.functional = cfg_.functional;
  if (cfg_.functional) {
    double e = 0;
    for (auto& st : ranks_) e += st->lattice->owned_energy();
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
    for (auto& st : ranks_) e += st->lattice->owned_energy();
    m.energy_final = e;
  }
  return m;
}

}  // namespace apn::apps::hsg
