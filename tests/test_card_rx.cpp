// Receive-path behaviour: Nios II processing cap, BUF_LIST scaling, GPU
// P2P write-window management.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "host_bytes.hpp"

namespace apn::core {
namespace {

using cluster::Cluster;
using test_util::host_buf;
using units::us;

TEST(CardRx, HostLoopbackBandwidthIsRxBound) {
  // Paper Table I: host-to-host loop-back 1.2 GB/s (RX processing cap),
  // versus 2.4 GB/s for the pure memory read.
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 1, ApenetParams{}, false);
  auto r = cluster::loopback_bandwidth(*c, 0, MemType::kHost, 1 << 20, 48);
  EXPECT_GT(r.mbps, 1050.0);
  EXPECT_LT(r.mbps, 1350.0);
}

TEST(CardRx, BufListTraversalScalesWithRegisteredBuffers) {
  // The paper: BUF_LIST traversal "linearly scales with the number of
  // registered buffers". More registrations => lower RX throughput.
  auto run = [](int extra_buffers) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_i(sim, 1, ApenetParams{}, false);
    // Park a pile of extra registrations in the BUF_LIST.
    [](Cluster* c, int n) -> sim::Coro {
      for (int i = 0; i < n; ++i) {
        co_await c->rdma(0).register_buffer(c->node(0).hostmem().alloc(64),
                                            64, MemType::kHost);
      }
    }(c.get(), extra_buffers);
    sim.run();
    auto r =
        cluster::loopback_bandwidth(*c, 0, MemType::kHost, 1 << 20, 24);
    return r.mbps;
  };
  double few = run(0);
  double many = run(200);
  EXPECT_LT(many, few * 0.9);
}

TEST(CardRx, GpuDestinationPaysWindowSwitches) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  cuda::DevPtr dst = c->node(1).cuda().malloc_device(0, 1 << 20);
  const std::uint64_t src = c->node(0).hostmem().alloc(1 << 20);
  [](Cluster* c, cuda::DevPtr dst, std::uint64_t src) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, 1 << 20, MemType::kGpu);
    c->rdma(0).put(c->coord(1), src, 1 << 20, dst, MemType::kHost);
    co_await c->rdma(1).events().pop();
  }(c.get(), dst, src);
  sim.run();
  // 1 MiB spans 16 64-KB pages: at least 16 window switches.
  EXPECT_GE(c->node(1).gpu(0).window_switches(), 16u);
}

TEST(CardRx, PacketsSpanningWindowBoundaryAreSplit) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  cuda::Runtime& cu1 = c->node(1).cuda();
  // Offset the destination so a 4 KB packet straddles a 64 KB page.
  cuda::DevPtr base = cu1.malloc_device(0, 3 * 64 * 1024);
  cuda::DevPtr dst = base + 64 * 1024 - 2048;
  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  const std::uint64_t src = host_buf(c->node(0).hostmem(), data);
  [](Cluster* c, cuda::DevPtr dst, std::uint64_t src) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, 4096, MemType::kGpu);
    c->rdma(0).put(c->coord(1), src, 4096, dst, MemType::kHost);
    co_await c->rdma(1).events().pop();
  }(c.get(), dst, src);
  sim.run();
  std::vector<std::uint8_t> out(4096);
  cu1.download(dst, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out, data);
  EXPECT_GE(c->node(1).gpu(0).window_switches(), 2u);
}

TEST(CardRx, HostToGpuSlightlySlowerThanHostToHost) {
  // Paper Fig. 6: ~10% penalty when receive buffers are on the GPU.
  sim::Simulator sim;
  auto c1 = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  cluster::TwoNodeOptions hh;
  auto hh_bw = cluster::twonode_bandwidth(*c1, 1 << 20, 48, hh);

  sim::Simulator sim2;
  auto c2 = Cluster::make_cluster_i(sim2, 2, ApenetParams{}, false);
  cluster::TwoNodeOptions hg;
  hg.dst_type = MemType::kGpu;
  auto hg_bw = cluster::twonode_bandwidth(*c2, 1 << 20, 48, hg);

  EXPECT_LT(hg_bw.mbps, hh_bw.mbps);
  EXPECT_GT(hg_bw.mbps, hh_bw.mbps * 0.8);
}

TEST(CardRx, NiosUtilizationIsTheBottleneckInLoopback) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 1, ApenetParams{}, false);
  cluster::loopback_bandwidth(*c, 0, MemType::kHost, 1 << 20, 32);
  // During a saturating loop-back run the Nios II is near 100% busy.
  EXPECT_GT(c->node(0).card().nios().utilization(), 0.85);
}

}  // namespace
}  // namespace apn::core
