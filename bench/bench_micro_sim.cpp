// google-benchmark micro-benchmarks of the simulation substrate itself:
// event-queue throughput (dense near-future and sparse far-future
// events), coroutine scheduling, channel pipelining, and a full RDMA PUT
// round trip. These guard the simulator's real-time cost, which bounds
// how large the paper-scale experiments can be.
#include <benchmark/benchmark.h>

#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "common/rng.hpp"
#include "sim/channel.hpp"
#include "sim/coro.hpp"
#include "sim/resource.hpp"

namespace {

using namespace apn;

void BM_EventQueue(benchmark::State& state) {
  // range(0) events inside one 1 ns epoch, all in the epoch heap: a shape
  // no model workload has, kept as the guard against a quadratic path.
  for (auto _ : state) {
    sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i)
      sim.after((i * 37) % 1000, [&] { ++fired; });
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);

void BM_FarFutureStream(benchmark::State& state) {
  // The shape of p2p_stream's queue: ten chains of events, each firing
  // 64 ns-2 us after it was scheduled and scheduling its successor, so
  // about ten events are pending at any time, all beyond the 1 ns open
  // epoch. range(0) events in all.
  for (auto _ : state) {
    sim::Simulator sim;
    Rng rng(static_cast<std::uint64_t>(state.range(0)));
    std::int64_t left = state.range(0);
    struct Hop {
      sim::Simulator& sim;
      Rng& rng;
      std::int64_t& left;
      void operator()() const {
        if (--left < 10) return;  // the ten chains' last events
        sim.after(units::ns(64) + static_cast<Time>(rng.next_below(
                                      units::ns(2000) - units::ns(64))),
                  *this);
      }
    };
    for (int i = 0; i < 10; ++i)
      sim.after(units::ns(64) * (i + 1), Hop{sim, rng, left});
    sim.run();
    benchmark::DoNotOptimize(left);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FarFutureStream)->Arg(100000);

void BM_SameTickChain(benchmark::State& state) {
  // Zero-delay self-rescheduling event: the pure same-tick ready-ring
  // path (no bucket, no heap). This is the fast path every primitive
  // wakeup (Gate/CreditPool/Queue via schedule_resume) rides.
  for (auto _ : state) {
    sim::Simulator sim;
    int left = static_cast<int>(state.range(0));
    struct Chain {
      sim::Simulator& sim;
      int& left;
      void operator()() const {
        if (--left > 0) sim.after(0, *this);
      }
    };
    sim.after(0, Chain{sim, left});
    sim.run();
    benchmark::DoNotOptimize(left);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SameTickChain)->Arg(100000);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Queue<int> a(sim), b(sim);
    const int rounds = static_cast<int>(state.range(0));
    [](sim::Queue<int>* a, sim::Queue<int>* b, int rounds) -> sim::Coro {
      for (int i = 0; i < rounds; ++i) {
        a->push(i);
        co_await b->pop();
      }
    }(&a, &b, rounds);
    [](sim::Queue<int>* a, sim::Queue<int>* b, int rounds) -> sim::Coro {
      for (int i = 0; i < rounds; ++i) {
        int v = co_await a->pop();
        b->push(v);
      }
    }(&a, &b, rounds);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoroutinePingPong)->Arg(10000);

void BM_ChannelStream(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Channel ch(sim, sim::ChannelParams{Rate(4e9), 0, units::ns(200)});
    int delivered = 0;
    for (int i = 0; i < 10000; ++i) ch.send(Bytes(4096), [&] { ++delivered; });
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ChannelStream);

void BM_RdmaPutRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    auto c =
        cluster::Cluster::make_cluster_i(sim, 2, core::ApenetParams{}, false);
    auto bw = cluster::twonode_bandwidth(
        *c, static_cast<std::uint64_t>(state.range(0)), 8,
        cluster::TwoNodeOptions{});
    benchmark::DoNotOptimize(bw.mbps);
  }
}
BENCHMARK(BM_RdmaPutRoundTrip)->Arg(4096)->Arg(1 << 20);

void BM_GpuP2pReadMessage(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    core::ApenetParams p;
    p.flush_at_switch = true;
    auto c = cluster::Cluster::make_cluster_i(sim, 1, p, false);
    auto bw = cluster::loopback_bandwidth(*c, 0, core::MemType::kGpu,
                                          1 << 20, 4);
    benchmark::DoNotOptimize(bw.mbps);
  }
}
BENCHMARK(BM_GpuP2pReadMessage);

}  // namespace

BENCHMARK_MAIN();
