#include "apps/bfs/bfs.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace apn::apps::bfs {

namespace {
/// Per-peer count slot written at the end of each level's data burst.
struct CountSlot {
  std::uint64_t level_plus_one;
  std::uint64_t pairs;
};

/// Address of u64 cell `i` of a host slot array.
std::uint64_t cell(std::uint64_t array, int i) {
  return array + sizeof(std::uint64_t) * static_cast<std::uint64_t>(i);
}
}  // namespace

struct BfsRun::RankState {
  // Algorithm state (own vertex range).
  std::vector<std::int64_t> parents;
  std::vector<Vertex> frontier;
  std::vector<Vertex> next_frontier;
  std::vector<std::uint32_t> dedup;  ///< per-destination-vertex level stamp
  std::vector<std::vector<std::pair<Vertex, Vertex>>> outbox;  // per peer

  // APEnet transport resources.
  std::vector<cuda::DevPtr> out_dev;  // per peer
  std::vector<cuda::DevPtr> in_dev;   // per src peer
  cuda::DevPtr count_out_dev = 0;  ///< np slots, indexed by destination
  cuda::DevPtr count_in_dev = 0;   ///< np slots, indexed by source
  std::uint64_t reduce_slots = 0;  ///< np host u64 cells

  // Event pump state.
  std::uint64_t count_events = 0;
  std::uint64_t reduce_events = 0;
  std::function<void()> event_check;

  // minimpi per-peer count staging (np host u64 cells each).
  std::uint64_t counts_out = 0;
  std::uint64_t counts_in = 0;

  Time t_start = 0, t_end = 0;
  Time compute_time = 0, comm_time = 0;
  std::shared_ptr<sim::Gate> ready;
};

BfsRun::BfsRun(cluster::Cluster& cluster, BfsConfig config)
    : cluster_(cluster), cfg_(config), np_(cluster.size()) {
  graph_ = shared_graph(cfg_.scale, cfg_.edge_factor, cfg_.seed);
  root_ = pick_root(*graph_, cfg_.root_seed);
  per_rank_ = static_cast<Vertex>(
      (graph_->num_vertices() + static_cast<std::uint64_t>(np_) - 1) /
      static_cast<std::uint64_t>(np_));
  if (cfg_.net == BfsNet::kIb && !cluster_.has_mpi())
    throw std::invalid_argument("BFS: IB net requires an IB cluster");
  if (cfg_.net == BfsNet::kApenet && !cluster_.has_apenet())
    throw std::invalid_argument("BFS: APEnet net requires APEnet+");
}

BfsRun::~BfsRun() = default;

sim::Coro BfsRun::apenet_exchange(int rank, int level,
                                  std::shared_ptr<sim::Gate> done) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  core::RdmaDevice& rdma = cluster_.rdma(rank);
  cuda::Runtime& cuda = cluster_.node(rank).cuda();
  std::vector<std::shared_ptr<sim::Gate>> tx;

  for (int p = 0; p < np_; ++p) {
    if (p == rank) continue;
    RankState& peer = *ranks_[static_cast<std::size_t>(p)];
    auto& box = st.outbox[static_cast<std::size_t>(p)];
    const std::uint64_t bytes = box.size() * sizeof(std::pair<Vertex, Vertex>);
    if (bytes > 0) {
      // Stage the pair list into the per-peer device buffer (the frontier
      // kernel produced it on the GPU; functional copy is free).
      cuda.upload(st.out_dev[static_cast<std::size_t>(p)],
                  std::as_bytes(std::span(box)));
      core::RdmaDevice::Put d =
          rdma.put(cluster_.coord(p), st.out_dev[static_cast<std::size_t>(p)],
                   bytes, peer.in_dev[static_cast<std::size_t>(rank)],
                   core::MemType::kGpu, true);
      tx.push_back(d.tx_done);
    }
    // Count slot (always sent; carries the level for sanity). Each
    // destination gets its own staging slot: the TX engine reads GPU
    // memory asynchronously, so a shared slot would be overwritten by the
    // next peer's count before the first PUT is served.
    const CountSlot slot{static_cast<std::uint64_t>(level) + 1, box.size()};
    const std::uint64_t out_slot =
        st.count_out_dev + sizeof(CountSlot) * static_cast<std::uint64_t>(p);
    cuda.upload(out_slot, std::as_bytes(std::span(&slot, 1)));
    core::RdmaDevice::Put c = rdma.put(
        cluster_.coord(p), out_slot, sizeof(CountSlot),
        peer.count_in_dev + sizeof(CountSlot) * static_cast<std::uint64_t>(rank),
        core::MemType::kGpu, true);
    tx.push_back(c.tx_done);
  }

  // Wait for a count slot from every peer (data precedes its count on the
  // FIFO receive path, so all pair lists have landed by then). The target
  // is the absolute cumulative count for this level: fast peers may have
  // delivered their slots before we even got here.
  const std::uint64_t target =
      static_cast<std::uint64_t>(level + 1) *
      static_cast<std::uint64_t>(np_ - 1);
  auto gate = std::make_shared<sim::Gate>(cluster_.simulator());
  st.event_check = [&st, target, gate] {
    if (st.count_events >= target) gate->open();
  };
  st.event_check();
  co_await gate->wait();
  st.event_check = nullptr;

  for (auto& g : tx) co_await g->wait();
  done->open();
}

sim::Coro BfsRun::ib_exchange(int rank, int level,
                              std::shared_ptr<sim::Gate> done) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  mpi::Rank& mr = cluster_.mpi_rank(rank);
  cuda::Runtime& cuda = cluster_.node(rank).cuda();
  pcie::HostMemory& host = cluster_.node(rank).hostmem();
  const int tag_count = level * 2;
  const int tag_data = level * 2 + 1;

  std::vector<mpi::Signal> pending;
  for (int p = 0; p < np_; ++p) {
    if (p == rank) continue;
    auto& box = st.outbox[static_cast<std::size_t>(p)];
    host.store<std::uint64_t>(cell(st.counts_out, p), box.size());
    pending.push_back(mr.send(p, cell(st.counts_out, p),
                              sizeof(std::uint64_t), tag_count));
    const std::uint64_t bytes = box.size() * sizeof(std::pair<Vertex, Vertex>);
    if (bytes > 0) {
      cuda.upload(st.out_dev[static_cast<std::size_t>(p)],
                  std::as_bytes(std::span(box)));
      pending.push_back(mr.send(p, st.out_dev[static_cast<std::size_t>(p)],
                                bytes, tag_data));
    }
  }
  // Counts first, then the data recvs we now know exist.
  std::vector<mpi::Signal> count_recvs;
  for (int p = 0; p < np_; ++p) {
    if (p == rank) continue;
    count_recvs.push_back(mr.recv(p, cell(st.counts_in, p),
                                  sizeof(std::uint64_t), tag_count));
  }
  for (auto& s : count_recvs) co_await s;
  for (int p = 0; p < np_; ++p) {
    if (p == rank) continue;
    const std::uint64_t n = host.load<std::uint64_t>(cell(st.counts_in, p));
    if (n > 0) {
      pending.push_back(mr.recv(p, st.in_dev[static_cast<std::size_t>(p)],
                                n * sizeof(std::pair<Vertex, Vertex>),
                                tag_data));
    }
  }
  for (auto& s : pending) co_await s;
  done->open();
}

sim::Coro BfsRun::rank_main(int rank) {
  RankState& st = *ranks_[static_cast<std::size_t>(rank)];
  sim::Simulator& sim = cluster_.simulator();
  const Vertex vlo = lo(rank), vhi = hi(rank);
  const gpu::GpuArch& arch = cluster_.node(rank).gpu(0).arch();

  // ---- setup: register transport buffers ---------------------------------
  if (cfg_.net == BfsNet::kApenet) {
    core::RdmaDevice& rdma = cluster_.rdma(rank);
    for (int p = 0; p < np_; ++p) {
      if (p == rank) continue;
      const std::uint64_t cap =
          static_cast<std::uint64_t>(hi(rank) - lo(rank)) *
          sizeof(std::pair<Vertex, Vertex>);
      co_await rdma.register_buffer(st.in_dev[static_cast<std::size_t>(p)],
                                    std::max<std::uint64_t>(cap, 64),
                                    core::MemType::kGpu);
      const std::uint64_t out_cap =
          static_cast<std::uint64_t>(hi(p) - lo(p)) *
          sizeof(std::pair<Vertex, Vertex>);
      co_await rdma.register_buffer(st.out_dev[static_cast<std::size_t>(p)],
                                    std::max<std::uint64_t>(out_cap, 64),
                                    core::MemType::kGpu);
    }
    co_await rdma.register_buffer(
        st.count_in_dev, sizeof(CountSlot) * static_cast<std::uint64_t>(np_),
        core::MemType::kGpu);
    co_await rdma.register_buffer(
        st.count_out_dev, sizeof(CountSlot) * static_cast<std::uint64_t>(np_),
        core::MemType::kGpu);
    co_await rdma.register_buffer(st.reduce_slots, cell(0, np_),
                                  core::MemType::kHost);

    // Event pump: classifies every inbound completion.
    [](BfsRun* self, int rank) -> sim::Coro {
      RankState& st = *self->ranks_[static_cast<std::size_t>(rank)];
      core::RdmaDevice& rdma = self->cluster_.rdma(rank);
      for (;;) {
        core::RdmaEvent ev = co_await rdma.events().pop();
        if (ev.vaddr >= st.count_in_dev &&
            ev.vaddr < st.count_in_dev + sizeof(CountSlot) *
                                             static_cast<std::uint64_t>(
                                                 self->np_)) {
          ++st.count_events;
        } else if (ev.vaddr >= st.reduce_slots &&
                   ev.vaddr < cell(st.reduce_slots, self->np_)) {
          ++st.reduce_events;
        }
        if (st.event_check) st.event_check();
      }
    }(this, rank);
  }

  if (++ready_count_ == np_)
    for (auto& r : ranks_) r->ready->open();
  co_await st.ready->wait();
  st.t_start = sim.now();

  // ---- BFS --------------------------------------------------------------
  st.parents.assign(vhi - vlo, kUnreached);
  st.dedup.assign(graph_->num_vertices(), 0);
  if (owner(root_) == static_cast<Vertex>(rank)) {
    st.parents[root_ - vlo] = root_;
    st.frontier.push_back(root_);
  }

  cuda::Stream stream(cluster_.node(rank).cuda(), 0);
  int level = 0;
  for (;; ++level) {
    // -- frontier expansion kernel ------------------------------------
    Time tk0 = sim.now();
    std::uint64_t edges_scanned = 0;
    for (int p = 0; p < np_; ++p)
      st.outbox[static_cast<std::size_t>(p)].clear();
    st.next_frontier.clear();
    const std::uint32_t stamp = static_cast<std::uint32_t>(level) + 1;
    for (Vertex v : st.frontier) {
      edges_scanned += graph_->degree(v);
      for (Vertex w : graph_->neighbors(v)) {
        if (st.dedup[w] == stamp) continue;
        st.dedup[w] = stamp;
        Vertex o = owner(w);
        if (o == static_cast<Vertex>(rank)) {
          if (st.parents[w - vlo] == kUnreached) {
            st.parents[w - vlo] = v;
            st.next_frontier.push_back(w);
          }
        } else {
          st.outbox[o].emplace_back(w, v);
        }
      }
    }
    co_await stream.launch_kernel(
        arch.kernel_launch_overhead +
        units::transfer_time(Bytes(edges_scanned),
                             arch.edge_scan_rate));
    st.compute_time += sim.now() - tk0;

    // -- all-to-all pair exchange ----------------------------------------
    if (np_ > 1) {
      Time tc0 = sim.now();
      auto done = std::make_shared<sim::Gate>(sim);
      if (cfg_.net == BfsNet::kApenet) {
        apenet_exchange(rank, level, done);
      } else {
        ib_exchange(rank, level, done);
      }
      co_await done->wait();

      // -- integrate inbound pairs (second kernel) ---------------------
      std::uint64_t inbound = 0;
      cuda::Runtime& cuda = cluster_.node(rank).cuda();
      for (int p = 0; p < np_; ++p) {
        if (p == rank) continue;
        std::uint64_t pairs = 0;
        if (cfg_.net == BfsNet::kApenet) {
          CountSlot slot{};
          cuda.download(st.count_in_dev + sizeof(CountSlot) *
                                              static_cast<std::uint64_t>(p),
                        std::as_writable_bytes(std::span(&slot, 1)));
          pairs = slot.pairs;
        } else {
          pairs = cluster_.node(rank).hostmem().load<std::uint64_t>(
              cell(st.counts_in, p));
        }
        if (pairs == 0) continue;
        inbound += pairs;
        std::vector<std::pair<Vertex, Vertex>> buf(pairs);
        cuda.download(st.in_dev[static_cast<std::size_t>(p)],
                      std::as_writable_bytes(std::span(buf)));
        for (auto [w, parent] : buf) {
          if (st.parents[w - vlo] == kUnreached) {
            st.parents[w - vlo] = parent;
            st.next_frontier.push_back(w);
          }
        }
      }
      st.comm_time += sim.now() - tc0;
      if (inbound > 0) {
        Time ti0 = sim.now();
        co_await stream.launch_kernel(
            arch.kernel_launch_overhead +
            units::transfer_time(Bytes(inbound), arch.edge_scan_rate));
        st.compute_time += sim.now() - ti0;
      }
    }

    // -- global termination test ------------------------------------------
    std::uint64_t global_next = st.next_frontier.size();
    if (np_ > 1) {
      Time tr0 = sim.now();
      if (cfg_.net == BfsNet::kApenet) {
        core::RdmaDevice& rdma = cluster_.rdma(rank);
        pcie::HostMemory& host = cluster_.node(rank).hostmem();
        host.store<std::uint64_t>(cell(st.reduce_slots, rank),
                                  st.next_frontier.size());
        for (int p = 0; p < np_; ++p) {
          if (p == rank) continue;
          RankState& peer = *ranks_[static_cast<std::size_t>(p)];
          rdma.put(cluster_.coord(p), cell(st.reduce_slots, rank),
                   sizeof(std::uint64_t), cell(peer.reduce_slots, rank),
                   core::MemType::kHost, true);
        }
        const std::uint64_t target =
            static_cast<std::uint64_t>(level + 1) *
            static_cast<std::uint64_t>(np_ - 1);
        auto gate = std::make_shared<sim::Gate>(sim);
        st.event_check = [&st, target, gate] {
          if (st.reduce_events >= target) gate->open();
        };
        st.event_check();
        co_await gate->wait();
        st.event_check = nullptr;
        global_next = 0;
        for (int p = 0; p < np_; ++p)
          global_next += host.load<std::uint64_t>(cell(st.reduce_slots, p));
      } else {
        mpi::Rank& mr = cluster_.mpi_rank(rank);
        co_await mr.allreduce_sum(&global_next);
      }
      st.comm_time += sim.now() - tr0;
    }

    st.frontier.swap(st.next_frontier);
    if (global_next == 0) break;
  }

  st.t_end = sim.now();
  if (rank == 0) max_level_ = level;

  // Gather parents for validation (outside the timed region).
  for (Vertex v = vlo; v < vhi; ++v)
    final_parents_[v] = st.parents[v - vlo];
}

BfsMetrics BfsRun::run() {
  sim::Simulator& sim = cluster_.simulator();
  if (!ranks_.empty())
    throw std::logic_error("BfsRun::run: a BfsRun runs one traversal");
  final_parents_.assign(graph_->num_vertices(), kUnreached);

  // Host allocations come with zeroed backing, so the count and reduction
  // slots start at 0.
  for (int r = 0; r < np_; ++r) {
    auto st = std::make_unique<RankState>();
    st->outbox.resize(static_cast<std::size_t>(np_));
    st->out_dev.resize(static_cast<std::size_t>(np_));
    st->in_dev.resize(static_cast<std::size_t>(np_));
    cuda::Runtime& cuda = cluster_.node(r).cuda();
    for (int p = 0; p < np_; ++p) {
      if (p == r) continue;
      const std::uint64_t out_cap = std::max<std::uint64_t>(
          static_cast<std::uint64_t>(hi(p) - lo(p)) *
              sizeof(std::pair<Vertex, Vertex>),
          64);
      const std::uint64_t in_cap = std::max<std::uint64_t>(
          static_cast<std::uint64_t>(hi(r) - lo(r)) *
              sizeof(std::pair<Vertex, Vertex>),
          64);
      st->out_dev[static_cast<std::size_t>(p)] =
          cuda.malloc_device(0, out_cap);
      st->in_dev[static_cast<std::size_t>(p)] =
          cuda.malloc_device(0, in_cap);
    }
    st->count_out_dev = cuda.malloc_device(
        0, sizeof(CountSlot) * static_cast<std::uint64_t>(np_));
    st->count_in_dev = cuda.malloc_device(
        0, sizeof(CountSlot) * static_cast<std::uint64_t>(np_));
    pcie::HostMemory& host = cluster_.node(r).hostmem();
    st->reduce_slots = host.alloc(cell(0, np_));
    st->counts_out = host.alloc(cell(0, np_));
    st->counts_in = host.alloc(cell(0, np_));
    st->ready = std::make_shared<sim::Gate>(sim);
    ranks_.push_back(std::move(st));
  }

  for (int r = 0; r < np_; ++r) rank_main(r);
  sim.run();

  BfsMetrics m;
  Time wall = 0;
  for (auto& st : ranks_) wall = std::max(wall, st->t_end - st->t_start);
  m.wall = wall;
  m.levels = max_level_ + 1;
  const std::shared_ptr<const Reference> ref =
      shared_reference(graph_, root_);
  m.edges_traversed = ref->traversed_edges;
  m.teps = wall > 0 ? static_cast<double>(m.edges_traversed) /
                          units::to_sec(wall)
                    : 0.0;
  m.compute_time = ranks_[0]->compute_time;
  m.comm_time = ranks_[0]->comm_time;
  m.validated =
      validate_parents(*graph_, root_, final_parents_, ref->levels);
  return m;
}

}  // namespace apn::apps::bfs
