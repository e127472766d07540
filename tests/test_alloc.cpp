// Allocation gate for the simulator's hot paths. Once a path has warmed
// up (transfer slots and event slabs at their working size), repeating it
// must not allocate: in particular, a transfer's allocation count must not
// grow with its chunk count.
//
// Placement independence: simulated host addresses come from each node's
// HostMemory, never from the process heap, so whole runs repeat exactly
// (same addresses, same allocation counts, same results) in one process.
//
// This binary replaces the global allocation functions with counting ones,
// so it is a test executable of its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "apps/bfs/bfs.hpp"
#include "apps/hsg/runner.hpp"
#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "gpu/gpu.hpp"
#include "hw/profile.hpp"
#include "pcie/fabric.hpp"
#include "pcie/memory.hpp"
#include "sim/channel.hpp"
#include "sim/coro.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace {

// Single-threaded test binary: a plain counter is enough.
std::uint64_t g_allocs = 0;

void* count_alloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* count_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a))
    return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return count_alloc(n); }
void* operator new[](std::size_t n) { return count_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return count_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return count_alloc(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace apn {
namespace {

using units::ns;

template <typename F>
std::uint64_t allocs_during(F&& body) {
  const std::uint64_t before = g_allocs;
  body();
  return g_allocs - before;
}

/// Accepts writes; answers reads with timing-only data after 500 ns,
/// through a closure small enough for the event node's inline storage.
class Sink : public pcie::Device {
 public:
  explicit Sink(sim::Simulator& sim) : sim_(&sim) {}
  void handle_write(std::uint64_t, pcie::Payload) override {}
  void handle_read(std::uint64_t, std::uint32_t len, bool,
                   pcie::ReadReply reply) override {
    sim_->after(ns(500), [reply = std::move(reply), len]() mutable {
      reply(pcie::Payload::timing(len));
    });
  }

 private:
  sim::Simulator* sim_;
};

/// A card at the root complex and a device behind a switch:
/// src -> root -> switch -> dst.
struct AllocFixture : ::testing::Test {
  static constexpr std::uint64_t kDstBase = 0x4000000;

  sim::Simulator sim;
  pcie::Fabric fabric{sim};
  Sink src{sim}, dst{sim};
  int completions = 0;

  void SetUp() override {
    const int root = fabric.add_root();
    const int sw = fabric.add_switch(root, pcie::gen2_x16(), "plx");
    fabric.attach(src, root, pcie::gen2_x8());
    fabric.attach(dst, sw, pcie::gen2_x8());
    fabric.claim_range(dst, kDstBase, 1 << 24);
  }

  std::uint64_t write(std::uint64_t bytes) {
    return allocs_during([&] {
      fabric.post_write(src, kDstBase, pcie::Payload::timing(bytes),
                        [this] { ++completions; });
      sim.run();
    });
  }

  std::uint64_t read(std::uint32_t bytes) {
    return allocs_during([&] {
      fabric.read(src, kDstBase, bytes, true,
                  [this](pcie::Payload) { ++completions; });
      sim.run();
    });
  }
};

TEST_F(AllocFixture, WriteAllocationsDoNotGrowWithChunkCount) {
  write(1 << 20);  // warm-up at the largest size: rings reach full depth
  const std::uint64_t small = write(4 << 10);    // 1 chunk
  const std::uint64_t medium = write(64 << 10);  // 16 chunks
  const std::uint64_t large = write(1 << 20);    // 256 chunks
  EXPECT_EQ(small, medium);
  EXPECT_EQ(medium, large);
  EXPECT_EQ(large, 0u);
  EXPECT_EQ(completions, 4);
}

TEST_F(AllocFixture, ReadAllocationsDoNotGrowWithChunkCount) {
  read(64 << 10);  // warm-up
  const std::uint64_t small = read(4 << 10);
  const std::uint64_t medium = read(64 << 10);
  EXPECT_EQ(small, medium);
  EXPECT_EQ(medium, 0u);
  EXPECT_EQ(completions, 3);
}

TEST(SteadyStateAllocs, ResourcePostAllocatesNothing) {
  sim::Simulator sim;
  sim::Resource res(sim);
  int done = 0;
  auto burst = [&] {
    for (int i = 0; i < 32; ++i) res.post(ns(10), [&done] { ++done; });
    sim.run();
  };
  burst();  // warm-up: event slabs reach their working size
  EXPECT_EQ(allocs_during(burst), 0u);
  EXPECT_EQ(done, 64);
}

TEST(SteadyStateAllocs, ChannelSendAllocatesNothing) {
  sim::Simulator sim;
  sim::Channel ch(sim, sim::ChannelParams{units::GBps(4), ns(5), ns(200)});
  int delivered = 0;
  auto burst = [&] {
    for (int i = 0; i < 32; ++i)
      ch.send(Bytes(4096), [&delivered] { ++delivered; });
    sim.run();
  };
  burst();
  EXPECT_EQ(allocs_during(burst), 0u);
  EXPECT_EQ(delivered, 64);
}

TEST(SteadyStateAllocs, EventStoresAllocateNothing) {
  // Traffic through every store of the event queue: ready ring, epoch
  // heap, epoch buckets (one event alone in its epoch, and several
  // sharing one) and the far heap; each event schedules a follow-up at
  // half its delay.
  using sim::Simulator;
  Simulator sim;
  int fired = 0;
  const Time delays[] = {0, 10, 3 * Simulator::kEpochSpan,
                         50 * Simulator::kEpochSpan + 7,
                         2 * Simulator::kHorizon};
  auto burst = [&] {
    for (int i = 0; i < 32; ++i) {
      const Time d = delays[i % 5];
      sim.after(d, [&sim, &fired, d] {
        ++fired;
        sim.after(d / 2, [&fired] { ++fired; });
      });
    }
    sim.run();
  };
  burst();  // warm-up: event slabs and the heap reach their working size
  EXPECT_EQ(allocs_during(burst), 0u);
  EXPECT_EQ(fired, 128);
}

TEST(SteadyStateAllocs, CoroutineResumeAllocatesNothing) {
  sim::Simulator sim;
  sim::Resource res(sim);
  sim::Channel ch(sim, sim::ChannelParams{units::GBps(4), ns(5), ns(200)});
  sim::Gate warm(sim), go(sim);
  int rounds = 0;
  // One frame for both bursts. Each round resumes through resume_after
  // (delay) and resume_at (the Resource job's end, then the transfer's
  // delivery); each gate wakes the frame through schedule_resume.
  auto proc = [](sim::Simulator* sim, sim::Resource* res, sim::Channel* ch,
                 sim::Gate* warm, sim::Gate* go, int* rounds) -> sim::Coro {
    for (sim::Gate* gate : {warm, go}) {
      co_await gate->wait();
      for (int i = 0; i < 32; ++i) {
        co_await sim::delay(*sim, ns(10));
        co_await res->use(ns(10));
        co_await ch->transfer(Bytes(4096));
        ++*rounds;
      }
    }
  };
  proc(&sim, &res, &ch, &warm, &go, &rounds);  // allocates the frame
  warm.open();
  sim.run();  // warm-up: ready ring and event slabs
  EXPECT_EQ(allocs_during([&] {
              go.open();
              sim.run();
            }),
            0u);
  EXPECT_EQ(rounds, 64);
}

TEST(SteadyStateAllocs, TimingOnlyHostReadAllocatesNothing) {
  sim::Simulator sim;
  pcie::Fabric fabric(sim);
  const int root = fabric.add_root();
  pcie::HostMemory host(sim);
  fabric.attach(host, root, pcie::gen2_x16());
  fabric.set_default_target(host);
  Sink card(sim);
  fabric.attach(card, root, pcie::gen2_x8());
  // Backed, so a read that asked for the data would copy it.
  constexpr std::uint64_t kBytes = 64 << 10;
  const std::uint64_t base = host.alloc(kBytes);
  std::ranges::fill(host.bytes(base, kBytes), 0x5A);
  int done = 0;
  auto burst = [&] {
    for (std::uint64_t off = 0; off < kBytes; off += 512)
      fabric.read(card, base + off, 512, /*with_data=*/false,
                  [&done](pcie::Payload p) { done += p.data.empty(); });
    sim.run();
  };
  burst();  // warm-up: transfer slots, event slabs and the heap
  EXPECT_EQ(allocs_during(burst), 0u);
  EXPECT_EQ(done, 2 * 128);
}

TEST(SteadyStateAllocs, TimingOnlyP2pRequestAllocatesOnlyItsDescriptor) {
  constexpr std::uint64_t kGpuBase = 0xE00000000000ull;
  constexpr std::uint64_t kNicBase = 0xD00000000000ull;
  sim::Simulator sim;
  pcie::Fabric fabric(sim);
  gpu::Gpu gpu(sim, fabric, gpu::fermi_c2050(), kGpuBase);
  Sink nic(sim);
  const int root = fabric.add_root();
  const int sw = fabric.add_switch(root, pcie::gen2_x16(), "plx");
  fabric.attach(gpu, sw, pcie::gen2_x16());
  fabric.attach(nic, sw, pcie::gen2_x8());
  fabric.claim_range(gpu, gpu.mmio_base(), gpu.mmio_size());
  fabric.claim_range(nic, kNicBase, 1 << 20);
  // 4 KB: eight 512 B completions, each of which would copy device
  // memory if the request asked for the data.
  auto request = [&] {
    gpu::P2pReadDescriptor d{};
    d.len = 4096;
    d.flags = gpu::kP2pTimingOnly;
    d.reply_addr = kNicBase;
    pcie::Payload p;
    p.bytes = sizeof(d);
    p.data.resize(sizeof(d));  // the one allocation
    std::memcpy(p.data.data(), &d, sizeof(d));
    fabric.post_write(nic, gpu.mailbox_addr(), std::move(p));
    sim.run();
  };
  request();  // warm-up
  EXPECT_EQ(allocs_during(request), 1u);
  EXPECT_EQ(gpu.p2p_requests_served(), 2u);
}

TEST(SteadyStateAllocs, TwoNodePutAllocationsPerMessage) {
  // Steady-state one-packet H-H PUTs from node 0 to a buffer node 1
  // registered once, one message per burst. A burst makes 11 allocations:
  // the receiving coroutine's frame, and ten the message owns (its
  // coroutine frames, its shared holders, the receiver's message record).
  // The torus hop's send hook is not among them: it captures the packet's
  // holder, not the 64 B completion, so the hooked link event stays
  // inline instead of boxing a 96 B closure.
  sim::Simulator sim;
  auto c = cluster::Cluster::make_cluster_i(sim, 2, hw::params(), false);
  constexpr std::uint64_t kBytes = core::kMaxPacketPayload;
  const std::uint64_t src =
      cluster::make_buf(c->node(0), core::MemType::kHost, kBytes);
  const std::uint64_t dst =
      cluster::make_buf(c->node(1), core::MemType::kHost, kBytes);
  [](cluster::Cluster* c, std::uint64_t dst) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, kBytes, core::MemType::kHost);
  }(c.get(), dst);
  sim.run();
  int received = 0;
  auto burst = [&](int messages) {
    return allocs_during([&] {
      [](cluster::Cluster* c, int n, int* received) -> sim::Coro {
        for (int i = 0; i < n; ++i) {
          co_await c->rdma(1).events().pop();
          ++*received;
        }
      }(c.get(), messages, &received);
      for (int i = 0; i < messages; ++i)
        c->rdma(0).put(c->coord(1), src, kBytes, dst, core::MemType::kHost,
                       /*carry_data=*/false);
      sim.run();
    });
  };
  burst(64);  // warm-up: event slabs, transfer slots and queues
  for (int i = 0; i < 8; ++i) EXPECT_EQ(burst(1), 11u) << "burst " << i;
  EXPECT_EQ(received, 64 + 8);
}

TEST(PlacementIndependence, TwoClustersGetTheSameHostAddresses) {
  // Both clusters alive at once, so no heap address can repeat.
  sim::Simulator sim1, sim2;
  auto c1 = cluster::Cluster::make_cluster_i(sim1, 2, hw::params(), false);
  auto c2 = cluster::Cluster::make_cluster_i(sim2, 2, hw::params(), false);
  auto sequence = [](cluster::Cluster& c) {
    cluster::TwoNodeOptions opt;
    const Time latency = cluster::pingpong_latency(c, 4096, 3, opt);
    std::vector<std::uint64_t> addrs{static_cast<std::uint64_t>(latency)};
    for (std::uint64_t n : {64u, 5000u, 1u << 20})
      addrs.push_back(
          cluster::make_buf(c.node(1), core::MemType::kHost, n));
    return addrs;
  };
  EXPECT_EQ(sequence(*c1), sequence(*c2));
}

/// One Table IV point (APEnet+, NP=4): heap allocations made while the
/// BFS is built and run, and its simulated TEPS.
std::pair<std::uint64_t, double> table4_point() {
  sim::Simulator sim;
  auto c = cluster::Cluster::make_cluster_i(sim, 4, hw::params(), false);
  apps::bfs::BfsConfig cfg;
  cfg.scale = 12;
  cfg.net = apps::bfs::BfsNet::kApenet;
  double teps = 0;
  const std::uint64_t allocs = allocs_during([&] {
    apps::bfs::BfsRun run(*c, cfg);
    teps = run.run().teps;
  });
  return {allocs, teps};
}

TEST(SteadyStateAllocs, BfsRunOnACachedGraphAllocatesNothing) {
  sim::Simulator sim;
  auto c = cluster::Cluster::make_cluster_i(sim, 4, hw::params(), false);
  apps::bfs::BfsConfig cfg;
  cfg.scale = 12;
  const apps::bfs::BfsRun warm(*c, cfg);  // builds the graph
  EXPECT_EQ(allocs_during([&] { const apps::bfs::BfsRun run(*c, cfg); }),
            0u);
}

TEST(PlacementIndependence, RepeatedBfsPointAllocatesExactlyTheSame) {
  table4_point();  // the first point of a process also builds the graph
  const auto first = table4_point();
  const auto second = table4_point();
  const auto third = table4_point();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(second.first, third.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_EQ(second.second, third.second);
  EXPECT_GT(first.second, 0.0);
}

TEST(PlacementIndependence, TimingOnlyHsgBacksNoHostMemory) {
  namespace hsg = apps::hsg;
  for (hsg::CommMode mode : {hsg::CommMode::kP2pOn, hsg::CommMode::kP2pRx,
                             hsg::CommMode::kP2pOff, hsg::CommMode::kIb}) {
    sim::Simulator sim;
    auto c = mode == hsg::CommMode::kIb
                 ? cluster::Cluster::make_cluster_ii(sim, 2)
                 : cluster::Cluster::make_cluster_i(sim, 2, hw::params(),
                                                    false);
    hsg::HsgConfig cfg;
    cfg.L = 64;  // IB halos take the rendezvous path
    cfg.steps = 1;
    cfg.mode = mode;
    cfg.functional = false;
    hsg::HsgRun run(*c, cfg);
    EXPECT_GT(run.run().wall, 0);
    for (int n = 0; n < c->size(); ++n) {
      pcie::HostMemory& host = c->node(n).hostmem();
      EXPECT_EQ(host.backed_bytes(), 0u)
          << "mode " << static_cast<int>(mode) << ", node " << n;
      EXPECT_GT(host.alloc(1), pcie::HostMemory::kBase);  // halos allocated
    }
  }
}

}  // namespace
}  // namespace apn
