// 16/24-node torus configurations (the paper's announced expansion) and
// larger-shape routing/application sanity.
#include <gtest/gtest.h>

#include "apps/bfs/bfs.hpp"
#include "apps/hsg/runner.hpp"
#include "cluster/cluster.hpp"
#include "host_bytes.hpp"

namespace apn {
namespace {

using cluster::Cluster;
using core::ApenetParams;
using core::MemType;

TEST(ScaleOut, SixteenNodeShape) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 16, ApenetParams{}, false);
  EXPECT_EQ(c->size(), 16);
  EXPECT_EQ(c->shape().nz, 2);
}

TEST(ScaleOut, TwentyFourNodeShape) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 24, ApenetParams{}, false);
  EXPECT_EQ(c->size(), 24);
  EXPECT_EQ(c->shape().nz, 3);
}

TEST(ScaleOut, ZRoutingWorksInThreeDimensions) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 16, ApenetParams{}, false);
  // Farthest node from (0,0,0) in the 4x2x2 torus: (2,1,1), 4 hops.
  int far = c->shape().index({2, 1, 1});
  EXPECT_EQ(c->shape().hop_count({0, 0, 0}, {2, 1, 1}), 4);
  std::vector<std::uint8_t> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 3 + 1);
  const std::uint64_t src = test_util::host_buf(c->node(0).hostmem(), data);
  const std::uint64_t dst = c->node(far).hostmem().alloc(data.size());
  [](Cluster* c, int far, std::uint64_t src, std::uint64_t dst,
     std::uint64_t n) -> sim::Coro {
    co_await c->rdma(far).register_buffer(dst, n, MemType::kHost);
    c->rdma(0).put(c->coord(far), src, n, dst, MemType::kHost);
    co_await c->rdma(far).events().pop();
  }(c.get(), far, src, dst, data.size());
  sim.run();
  EXPECT_EQ(test_util::host_bytes(c->node(far).hostmem(), dst, data.size()),
            data);
}

TEST(ScaleOut, HsgSixteenNodesFunctionalEnergyConserved) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 16, ApenetParams{}, false);
  apps::hsg::HsgConfig cfg;
  cfg.L = 16;  // local_z = 1: boundary-only slabs, the extreme case
  cfg.steps = 2;
  cfg.mode = apps::hsg::CommMode::kP2pOn;
  cfg.functional = true;
  apps::hsg::HsgRun run(*c, cfg);
  auto m = run.run();
  EXPECT_NEAR(m.energy_final, m.energy_initial,
              std::abs(m.energy_initial) * 1e-4 + 1e-3);
}

TEST(ScaleOut, BfsSixteenNodesValidates) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 16, ApenetParams{}, false);
  apps::bfs::BfsConfig cfg;
  cfg.scale = 10;
  cfg.edge_factor = 8;
  apps::bfs::BfsRun run(*c, cfg);
  auto m = run.run();
  EXPECT_TRUE(m.validated);
}

TEST(ScaleOut, BfsCommShareGrowsWithNodes) {
  auto comm_share = [](int np) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_i(sim, np, ApenetParams{}, false);
    apps::bfs::BfsConfig cfg;
    cfg.scale = 12;
    cfg.edge_factor = 8;
    apps::bfs::BfsRun run(*c, cfg);
    auto m = run.run();
    return static_cast<double>(m.comm_time) / static_cast<double>(m.wall);
  };
  // The all-to-all pattern loads the torus more per node added.
  EXPECT_GT(comm_share(16), comm_share(4));
}

TEST(ScaleOut, HsgStrongScalingContinuesTo16) {
  auto ttot = [](int np) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_i(sim, np, ApenetParams{}, false);
    apps::hsg::HsgConfig cfg;
    cfg.L = 64;
    cfg.steps = 2;
    cfg.functional = false;
    apps::hsg::HsgRun run(*c, cfg);
    return run.run().ttot_ps;
  };
  double t2 = ttot(2);
  double t16 = ttot(16);
  // L=64 is small; 16 nodes won't scale linearly but must still beat 2.
  EXPECT_LT(t16, t2);
}

}  // namespace
}  // namespace apn
