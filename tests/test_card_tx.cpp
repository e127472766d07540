// Transmit-path behaviour of the APEnet+ card model: host memory read
// bandwidth, descriptor ordering, FIFO back-pressure.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "host_bytes.hpp"

namespace apn::core {
namespace {

using cluster::Cluster;
using test_util::host_buf;
using test_util::host_bytes;
using units::us;

std::unique_ptr<Cluster> flush_cluster(sim::Simulator& sim) {
  ApenetParams p;
  p.flush_at_switch = true;
  return Cluster::make_cluster_i(sim, 1, p, /*with_ib=*/false);
}

TEST(CardTx, HostMemoryReadBandwidthMatchesPaper) {
  // Paper Table I: APEnet+ host memory read = 2.4 GB/s.
  sim::Simulator sim;
  auto c = flush_cluster(sim);
  auto r = cluster::loopback_bandwidth(*c, 0, MemType::kHost, 1 << 20, 64);
  EXPECT_GT(r.mbps, 2100.0);
  EXPECT_LT(r.mbps, 2700.0);
}

TEST(CardTx, SmallMessagesCostPerMessageOverhead) {
  sim::Simulator sim;
  auto c = flush_cluster(sim);
  auto small =
      cluster::loopback_bandwidth(*c, 0, MemType::kHost, 4096, 256);
  sim::Simulator sim2;
  auto c2 = flush_cluster(sim2);
  auto large =
      cluster::loopback_bandwidth(*c2, 0, MemType::kHost, 1 << 20, 32);
  EXPECT_LT(small.mbps, large.mbps);
  EXPECT_GT(small.mbps, 500.0);  // but still pipelined, not one-at-a-time
}

TEST(CardTx, TxDoneGateOpensAfterInjection) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  const std::uint64_t src = c->node(0).hostmem().alloc(4096);
  const std::uint64_t dst = c->node(1).hostmem().alloc(4096);
  Time tx_done_at = -1, rx_at = -1;
  [](Cluster* c, std::uint64_t src, std::uint64_t dst, Time* tx_done_at,
     Time* rx_at) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, 4096, MemType::kHost);
    auto p = c->rdma(0).put(c->coord(1), src, 4096, dst, MemType::kHost);
    co_await p.tx_done->wait();
    *tx_done_at = c->simulator().now();
    co_await c->rdma(1).events().pop();
    *rx_at = c->simulator().now();
  }(c.get(), src, dst, &tx_done_at, &rx_at);
  sim.run();
  EXPECT_GT(tx_done_at, 0);
  // Local completion strictly precedes remote delivery.
  EXPECT_LT(tx_done_at, rx_at);
}

TEST(CardTx, PacketsInjectedCountMatchesFragmentation) {
  sim::Simulator sim;
  auto c = flush_cluster(sim);
  [](Cluster* c) -> sim::Coro {
    const std::uint64_t src = c->node(0).hostmem().alloc(9000);
    auto p = c->rdma(0).put(c->coord(0), src, 9000, 0x1000, MemType::kHost,
                            false);
    co_await p.tx_done->wait();
  }(c.get());
  sim.run();
  // 9000 B -> 2x 4096 + 1x 808 = 3 packets.
  EXPECT_EQ(c->node(0).card().packets_injected(), 3u);
}

TEST(CardTx, ZeroAndTinyMessages) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  const std::vector<std::uint8_t> data(32, 0xEE);
  const std::uint64_t src = host_buf(c->node(0).hostmem(), data);
  const std::uint64_t dst = c->node(1).hostmem().alloc(32);
  [](Cluster* c, std::uint64_t src, std::uint64_t dst) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, 32, MemType::kHost);
    c->rdma(0).put(c->coord(1), src, 32, dst, MemType::kHost);
    co_await c->rdma(1).events().pop();
  }(c.get(), src, dst);
  sim.run();
  EXPECT_EQ(host_bytes(c->node(1).hostmem(), dst, 32), data);
}

TEST(CardTx, ExplicitFlagSkipsPointerQuery) {
  // The MemType::kHost flag path must not consult the CUDA runtime; a put
  // with the explicit flag is (slightly) faster than kAuto.
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  const std::uint64_t src = c->node(0).hostmem().alloc(64);
  const std::uint64_t dst = c->node(1).hostmem().alloc(64);
  Time t_flag = 0, t_auto = 0;
  [](Cluster* c, std::uint64_t src, std::uint64_t dst, Time* t_flag,
     Time* t_auto) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, 64, MemType::kHost);
    sim::Simulator& sim = c->simulator();
    Time t0 = sim.now();
    c->rdma(0).put(c->coord(1), src, 64, dst, MemType::kHost);
    co_await c->rdma(1).events().pop();
    *t_flag = sim.now() - t0;
    t0 = sim.now();
    c->rdma(0).put(c->coord(1), src, 64, dst, MemType::kAuto);
    co_await c->rdma(1).events().pop();
    *t_auto = sim.now() - t0;
  }(c.get(), src, dst, &t_flag, &t_auto);
  sim.run();
  EXPECT_EQ(t_auto - t_flag, c->rdma(0).params().pointer_query_cost);
}

}  // namespace
}  // namespace apn::core
