#include "cluster/collectives.hpp"

#include <functional>

namespace apn::cluster {

namespace {
int rounds_for(int np) {
  int r = 0;
  for (int span = 1; span < np; span *= 2) ++r;
  return r;
}

/// Bytes of `n` u64 slot cells.
std::uint64_t cells(int n) {
  return sizeof(std::uint64_t) * static_cast<std::uint64_t>(n);
}
}  // namespace

struct Collectives::NodeState {
  explicit NodeState(sim::Simulator& sim, pcie::HostMemory& host, int np,
                     int rounds)
      : host(&host),
        barrier_slots(host.alloc(cells(rounds))),
        reduce_values(host.alloc(cells(np))),
        reduce_epochs(host.alloc(cells(np))),
        bcast_slot(host.alloc(cells(2))),
        stage_barrier(host.alloc(cells(rounds))),
        stage_value(host.alloc(cells(1))),
        stage_epoch(host.alloc(cells(1))),
        stage_bcast(host.alloc(cells(2))),
        app_events(sim) {}

  pcie::HostMemory* host;
  // Remote-writable slot arrays (registered host memory), u64 cells.
  std::uint64_t barrier_slots;  ///< [round] <- partner epoch
  std::uint64_t reduce_values;  ///< [src] gathered at rank 0
  std::uint64_t reduce_epochs;  ///< [src] arrival flags
  std::uint64_t bcast_slot;     ///< {epoch, value}
  // Staged outgoing values (the PUT sources).
  std::uint64_t stage_barrier;  ///< [round] epoch
  std::uint64_t stage_value;
  std::uint64_t stage_epoch;
  std::uint64_t stage_bcast;  ///< {epoch, value}

  std::uint64_t barrier_epoch = 0;
  std::uint64_t reduce_epoch = 0;
  sim::Queue<core::RdmaEvent> app_events;
  /// Conditions re-evaluated on every collective-slot completion; an entry
  /// returning true is done and removed.
  std::vector<std::function<bool()>> waiters;

  static std::uint64_t cell(std::uint64_t array, int i) {
    return array + cells(i);
  }
  std::uint64_t get(std::uint64_t array, int i) const {
    return host->load<std::uint64_t>(cell(array, i));
  }
  void set(std::uint64_t array, int i, std::uint64_t v) {
    host->store(cell(array, i), v);
  }

  void poll() {
    std::erase_if(waiters, [](auto& w) { return w(); });
  }
};

Collectives::Collectives(Cluster& cluster)
    : cluster_(cluster), np_(cluster.size()) {
  const int rounds = rounds_for(np_);
  for (int r = 0; r < np_; ++r) {
    nodes_.push_back(std::make_unique<NodeState>(
        cluster.simulator(), cluster.node(r).hostmem(), np_, rounds));
    pump(r);
  }
}

Collectives::~Collectives() = default;

sim::Queue<core::RdmaEvent>& Collectives::events(int rank) {
  return nodes_.at(static_cast<std::size_t>(rank))->app_events;
}

bool Collectives::is_collective_addr(int rank, std::uint64_t vaddr) const {
  const NodeState& st = *nodes_[static_cast<std::size_t>(rank)];
  auto within = [vaddr](std::uint64_t array, int cells) {
    return vaddr >= array && vaddr < NodeState::cell(array, cells);
  };
  return within(st.barrier_slots, rounds_for(np_)) ||
         within(st.reduce_values, np_) || within(st.reduce_epochs, np_) ||
         within(st.bcast_slot, 2);
}

sim::Future<bool> Collectives::setup() {
  sim::Future<bool> done(cluster_.simulator());
  auto remaining = std::make_shared<int>(np_);
  for (int r = 0; r < np_; ++r) {
    [](Collectives* self, int rank, std::shared_ptr<int> remaining,
       sim::Future<bool> done) -> sim::Coro {
      NodeState& st = *self->nodes_[static_cast<std::size_t>(rank)];
      core::RdmaDevice& rdma = self->cluster_.rdma(rank);
      auto reg = [&](std::uint64_t array, int n) {
        return rdma.register_buffer(array, cells(n), core::MemType::kHost);
      };
      co_await reg(st.barrier_slots, rounds_for(self->np_));
      co_await reg(st.reduce_values, self->np_);
      co_await reg(st.reduce_epochs, self->np_);
      co_await reg(st.bcast_slot, 2);
      if (--*remaining == 0) done.set(true);
    }(this, r, remaining, done);
  }
  return done;
}

sim::Coro Collectives::pump(int rank) {
  NodeState& st = *nodes_[static_cast<std::size_t>(rank)];
  core::RdmaDevice& rdma = cluster_.rdma(rank);
  for (;;) {
    core::RdmaEvent ev = co_await rdma.events().pop();
    if (is_collective_addr(rank, ev.vaddr)) {
      st.poll();
    } else {
      st.app_events.push(ev);
    }
  }
}

sim::Future<bool> Collectives::barrier(int rank) {
  sim::Future<bool> done(cluster_.simulator());
  run_barrier(rank, done);
  return done;
}

sim::Coro Collectives::run_barrier(int rank, sim::Future<bool> done) {
  NodeState& st = *nodes_[static_cast<std::size_t>(rank)];
  core::RdmaDevice& rdma = cluster_.rdma(rank);
  const std::uint64_t epoch = ++st.barrier_epoch;
  int round = 0;
  for (int span = 1; span < np_; span *= 2, ++round) {
    const int partner = (rank + span) % np_;
    NodeState& pst = *nodes_[static_cast<std::size_t>(partner)];
    st.set(st.stage_barrier, round, epoch);
    rdma.put(cluster_.coord(partner), NodeState::cell(st.stage_barrier, round),
             cells(1), NodeState::cell(pst.barrier_slots, round),
             core::MemType::kHost, true);
    // Wait for the partner on the other side of this round.
    auto gate = std::make_shared<sim::Gate>(cluster_.simulator());
    const int r = round;
    st.waiters.push_back([&st, r, epoch, gate] {
      if (st.get(st.barrier_slots, r) >= epoch) {
        gate->open();
        return true;
      }
      return false;
    });
    st.poll();
    co_await gate->wait();
  }
  done.set(true);
}

sim::Future<std::uint64_t> Collectives::allreduce_sum(int rank,
                                                      std::uint64_t value) {
  sim::Future<std::uint64_t> done(cluster_.simulator());
  run_allreduce(rank, value, done);
  return done;
}

sim::Coro Collectives::run_allreduce(int rank, std::uint64_t value,
                                     sim::Future<std::uint64_t> done) {
  NodeState& st = *nodes_[static_cast<std::size_t>(rank)];
  core::RdmaDevice& rdma = cluster_.rdma(rank);
  const std::uint64_t epoch = ++st.reduce_epoch;
  NodeState& root = *nodes_[0];

  if (rank != 0) {
    // Value first, then the epoch flag: APEnet+ delivery is FIFO per pair.
    st.set(st.stage_value, 0, value);
    st.set(st.stage_epoch, 0, epoch);
    rdma.put(cluster_.coord(0), st.stage_value, cells(1),
             NodeState::cell(root.reduce_values, rank), core::MemType::kHost,
             true);
    rdma.put(cluster_.coord(0), st.stage_epoch, cells(1),
             NodeState::cell(root.reduce_epochs, rank), core::MemType::kHost,
             true);
    // Wait for the broadcast of this epoch's result.
    auto gate = std::make_shared<sim::Gate>(cluster_.simulator());
    st.waiters.push_back([&st, epoch, gate] {
      if (st.get(st.bcast_slot, 0) >= epoch) {
        gate->open();
        return true;
      }
      return false;
    });
    st.poll();
    co_await gate->wait();
    done.set(st.get(st.bcast_slot, 1));
    co_return;
  }

  // Rank 0: gather, sum, broadcast.
  root.set(root.reduce_values, 0, value);
  auto gate = std::make_shared<sim::Gate>(cluster_.simulator());
  const int np = np_;
  root.waiters.push_back([&root, epoch, np, gate] {
    for (int i = 1; i < np; ++i) {
      if (root.get(root.reduce_epochs, i) < epoch) return false;
    }
    gate->open();
    return true;
  });
  root.poll();
  co_await gate->wait();
  std::uint64_t sum = 0;
  for (int i = 0; i < np_; ++i)
    sum += root.get(root.reduce_values, i);
  root.set(root.stage_bcast, 0, epoch);
  root.set(root.stage_bcast, 1, sum);
  for (int i = 1; i < np_; ++i) {
    NodeState& pst = *nodes_[static_cast<std::size_t>(i)];
    rdma.put(cluster_.coord(i), NodeState::cell(root.stage_bcast, 1), cells(1),
             NodeState::cell(pst.bcast_slot, 1), core::MemType::kHost, true);
    rdma.put(cluster_.coord(i), NodeState::cell(root.stage_bcast, 0), cells(1),
             NodeState::cell(pst.bcast_slot, 0), core::MemType::kHost, true);
  }
  done.set(sum);
}

}  // namespace apn::cluster
