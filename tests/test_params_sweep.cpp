// Parameterized sweeps over model knobs: monotonicity and sanity
// properties that must hold for ANY configuration, not just the paper's.
#include <gtest/gtest.h>

#include "apps/hsg/runner.hpp"
#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"

namespace apn {
namespace {

using cluster::Cluster;
using core::ApenetParams;
using core::MemType;

// ---- PCIe link parameter space -------------------------------------------

class LinkSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(LinkSweep, EffectiveRateScalesWithWidthAndGen) {
  auto [gen, lanes] = GetParam();
  pcie::LinkParams l;
  l.gen = gen;
  l.lanes = lanes;
  EXPECT_GT(l.raw_rate().bytes_per_sec(), 0.0);
  EXPECT_LT(l.effective_rate(), l.raw_rate());
  // Doubling lanes doubles the rate exactly.
  pcie::LinkParams wide = l;
  wide.lanes = lanes * 2;
  EXPECT_DOUBLE_EQ(wide.raw_rate().bytes_per_sec(),
                   (l.raw_rate() * 2.0).bytes_per_sec());
  // Serialization is monotone in size.
  EXPECT_LT(l.serialize_time(Bytes(4096)), l.serialize_time(Bytes(8192)));
}

INSTANTIATE_TEST_SUITE_P(
    GenLanes, LinkSweep,
    ::testing::Values(std::make_pair(1, 4), std::make_pair(1, 8),
                      std::make_pair(2, 4), std::make_pair(2, 8),
                      std::make_pair(2, 16), std::make_pair(3, 8)),
    [](const auto& info) {
      return "gen" + std::to_string(info.param.first) + "x" +
             std::to_string(info.param.second);
    });

// ---- torus shapes ------------------------------------------------------------

class TorusSweep : public ::testing::TestWithParam<core::TorusShape> {};

TEST_P(TorusSweep, RoutingReachesEveryPairMinimally) {
  core::TorusShape s = GetParam();
  for (int from = 0; from < s.size(); ++from) {
    for (int to = 0; to < s.size(); ++to) {
      core::TorusCoord here = s.coord(from);
      core::TorusCoord dst = s.coord(to);
      int hops = 0;
      while (!(here == dst)) {
        here = s.neighbor(here, s.route_next(here, dst));
        ASSERT_LE(++hops, s.nx + s.ny + s.nz);
      }
      ASSERT_EQ(hops, s.hop_count(s.coord(from), dst));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TorusSweep,
    ::testing::Values(core::TorusShape{2, 1, 1}, core::TorusShape{4, 1, 1},
                      core::TorusShape{4, 2, 1}, core::TorusShape{2, 2, 2},
                      core::TorusShape{4, 2, 2}, core::TorusShape{4, 2, 3},
                      core::TorusShape{3, 3, 3}),
    [](const auto& info) {
      return "t" + std::to_string(info.param.nx) +
             std::to_string(info.param.ny) + std::to_string(info.param.nz);
    });

// ---- prefetch window monotonicity across versions -----------------------------

class WindowSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WindowSweep, V2BandwidthNonDecreasingInWindow) {
  auto bw = [](std::uint32_t window) {
    sim::Simulator sim;
    ApenetParams p;
    p.flush_at_switch = true;
    p.p2p_tx_version = core::P2pTxVersion::kV2;
    p.p2p_prefetch_window = window;
    auto c = Cluster::make_cluster_i(sim, 1, p, false);
    return cluster::loopback_bandwidth(*c, 0, MemType::kGpu, 512 * 1024, 8)
        .mbps;
  };
  std::uint32_t w = GetParam();
  EXPECT_LE(bw(w), bw(w * 2) * 1.02) << "window " << w;
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(4096u, 8192u, 16384u, 32768u),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param / 1024) +
                                  "K";
                         });

// ---- torus link speed affects only the wire -----------------------------------

TEST(ParamSweep, SlowerTorusLinksLowerTwoNodeBandwidth) {
  auto bw = [](double gbps) {
    sim::Simulator sim;
    ApenetParams p;
    p.torus_link_gbps = gbps;
    auto c = Cluster::make_cluster_i(sim, 2, p, false);
    return cluster::twonode_bandwidth(*c, 1 << 20, 24,
                                      cluster::TwoNodeOptions{})
        .mbps;
  };
  double fast = bw(28.0);
  double slow = bw(8.0);  // below the RX bound: the wire becomes binding
  EXPECT_LT(slow, fast);
  EXPECT_LT(slow, 1000.0);  // 8 Gbps = 1 GB/s raw minus packet overhead
}

TEST(ParamSweep, RxCostsControlTheLoopbackCap) {
  auto bw = [](double scale) {
    sim::Simulator sim;
    ApenetParams p;
    p.nios.rx_buflist_base =
        static_cast<Time>(static_cast<double>(p.nios.rx_buflist_base) * scale);
    p.nios.rx_v2p =
        static_cast<Time>(static_cast<double>(p.nios.rx_v2p) * scale);
    p.nios.rx_dma_kick =
        static_cast<Time>(static_cast<double>(p.nios.rx_dma_kick) * scale);
    auto c = Cluster::make_cluster_i(sim, 1, p, false);
    return cluster::loopback_bandwidth(*c, 0, MemType::kHost, 1 << 20, 16)
        .mbps;
  };
  double baseline = bw(1.0);
  double doubled = bw(2.0);
  EXPECT_NEAR(doubled, baseline / 2, baseline * 0.1);
}

// ---- HSG occupancy model -----------------------------------------------------

TEST(ParamSweep, HsgOccupancyPenalizesTinyKernels) {
  // L = 32 on one rank: each phase enqueues a 1024-site boundary kernel,
  // then a 15360-site bulk kernel. Both sit far below the 150000-site
  // occupancy knee, so each runs at the 3x derating cap; without the
  // derating the per-spin time would be about a third.
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 1, ApenetParams{}, false);
  apps::hsg::HsgConfig cfg;
  cfg.L = 32;
  cfg.steps = 2;
  cfg.functional = false;
  apps::hsg::HsgRun run(*c, cfg);
  const double ttot = run.run().ttot_ps;

  const gpu::GpuArch& arch = c->node(0).gpu(0).arch();
  const Time enqueue = c->node(0).cuda().params().enqueue_overhead;
  auto kernel = [&](double sites) {
    return enqueue + arch.kernel_launch_overhead +
           static_cast<Time>(sites *
                             static_cast<double>(arch.spin_update_time) * 3.0);
  };
  const Time phase = kernel(1024) + kernel(15360);
  EXPECT_DOUBLE_EQ(ttot, static_cast<double>(2 * cfg.steps * phase) /
                             (32.0 * 32 * 32 * cfg.steps));
}

}  // namespace
}  // namespace apn
