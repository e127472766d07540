// Torus wiring and multi-hop routing through the ApenetNetwork.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "host_bytes.hpp"

namespace apn::core {
namespace {

using cluster::Cluster;
using units::us;

TEST(Network, EightNodeTorusShape) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 8, ApenetParams{}, false);
  EXPECT_EQ(c->size(), 8);
  EXPECT_EQ(c->shape().nx, 4);
  EXPECT_EQ(c->shape().ny, 2);
  EXPECT_EQ(c->shape().nz, 1);
}

TEST(Network, MultiHopDelivery) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 8, ApenetParams{}, false);
  // (0,0,0) -> (2,1,0): 3 hops through intermediate cards.
  std::vector<std::uint8_t> data(2048);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i ^ 0x5Au);
  int dst_node = c->shape().index({2, 1, 0});
  const std::uint64_t src = test_util::host_buf(c->node(0).hostmem(), data);
  const std::uint64_t dst = c->node(dst_node).hostmem().alloc(2048);
  [](Cluster* c, int dst_node, std::uint64_t src,
     std::uint64_t dst) -> sim::Coro {
    co_await c->rdma(dst_node).register_buffer(dst, 2048, MemType::kHost);
    c->rdma(0).put(c->coord(dst_node), src, 2048, dst, MemType::kHost);
    co_await c->rdma(dst_node).events().pop();
  }(c.get(), dst_node, src, dst);
  sim.run();
  EXPECT_EQ(test_util::host_bytes(c->node(dst_node).hostmem(), dst, 2048),
            data);
  // Transit cards must not have consumed the packet.
  int mid = c->shape().index({1, 0, 0});
  EXPECT_EQ(c->node(mid).card().packets_received(), 0u);
}

TEST(Network, FartherNodesHaveHigherLatency) {
  auto one_way = [](TorusCoord target) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_i(sim, 8, ApenetParams{}, false);
    int dst_node = c->shape().index(target);
    auto t = std::make_shared<Time>(0);
    [](Cluster* c, int dst_node, std::shared_ptr<Time> t) -> sim::Coro {
      const std::uint64_t d = c->node(dst_node).hostmem().alloc(64);
      co_await c->rdma(dst_node).register_buffer(d, 64, MemType::kHost);
      Time t0 = c->simulator().now();
      const std::uint64_t src = c->node(0).hostmem().alloc(64);
      c->rdma(0).put(c->coord(dst_node), src, 64, d, MemType::kHost, false);
      co_await c->rdma(dst_node).events().pop();
      *t = c->simulator().now() - t0;
    }(c.get(), dst_node, t);
    sim.run();
    return *t;
  };
  Time near = one_way({1, 0, 0});   // 1 hop
  Time far = one_way({2, 1, 0});    // 3 hops
  EXPECT_GT(far, near);
  EXPECT_LT(far, near + us(2));  // each hop is sub-microsecond
}

TEST(Network, AllToAllTrafficCompletes) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 8, ApenetParams{}, false);
  const int n = c->size();
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * 256;
  auto buffers = std::make_shared<std::vector<std::uint64_t>>();
  for (int i = 0; i < n; ++i)
    buffers->push_back(c->node(i).hostmem().alloc(bytes));
  auto done = std::make_shared<int>(0);

  for (int me = 0; me < n; ++me) {
    [](Cluster* c, int me, int n,
       std::shared_ptr<std::vector<std::uint64_t>> buffers,
       std::shared_ptr<int> done) -> sim::Coro {
      const std::uint64_t mine = (*buffers)[static_cast<std::size_t>(me)];
      co_await c->rdma(me).register_buffer(
          mine, static_cast<std::uint64_t>(n) * 256, MemType::kHost);
      // Everyone sends 256 bytes to everyone else, tagged by sender.
      const std::uint64_t src = test_util::host_buf(
          c->node(me).hostmem(),
          std::vector<std::uint8_t>(256, static_cast<std::uint8_t>(me + 1)));
      for (int p = 0; p < n; ++p) {
        if (p == me) continue;
        const std::uint64_t theirs = (*buffers)[static_cast<std::size_t>(p)];
        c->rdma(me).put(c->coord(p), src, 256,
                        theirs + static_cast<std::uint64_t>(me) * 256,
                        MemType::kHost);
      }
      for (int p = 0; p < n - 1; ++p) co_await c->rdma(me).events().pop();
      ++*done;
    }(c.get(), me, n, buffers, done);
  }
  sim.run();
  EXPECT_EQ(*done, 8);
  // Spot-check contents: node 3's slot from node 5.
  EXPECT_EQ(c->node(3).hostmem().bytes((*buffers)[3] + 5 * 256 + 17, 1)[0],
            6);
}

TEST(Network, WrongCardCountThrows) {
  sim::Simulator sim;
  ApenetNetwork net(sim, TorusShape{2, 1, 1});
  EXPECT_THROW(net.wire(), std::logic_error);
}

}  // namespace
}  // namespace apn::core
