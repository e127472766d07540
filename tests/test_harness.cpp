// The measurement harness itself (shared by tests and benches): sanity
// invariants that keep every bench number trustworthy.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"

namespace apn::cluster {
namespace {

using core::ApenetParams;
using core::MemType;

TEST(Harness, BandwidthAccountsAllBytes) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  auto r = twonode_bandwidth(*c, 65536, 10, TwoNodeOptions{});
  EXPECT_EQ(r.bytes, 655360u);
  EXPECT_GT(r.elapsed, 0);
  EXPECT_NEAR(r.mbps, units::bandwidth_MBps(Bytes(r.bytes), r.elapsed), 1e-9);
}

TEST(Harness, MoreTrafficSameBandwidth) {
  // Throughput is a property of the pipe, not the repetition count.
  auto bw = [](int count) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
    return twonode_bandwidth(*c, 1 << 20, count, TwoNodeOptions{}).mbps;
  };
  EXPECT_NEAR(bw(16), bw(64), bw(16) * 0.05);
}

TEST(Harness, LatencyIndependentOfRepetitions) {
  auto lat = [](int reps) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
    return pingpong_latency(*c, 32, reps, TwoNodeOptions{});
  };
  Time a = lat(20);
  Time b = lat(200);
  EXPECT_NEAR(static_cast<double>(a), static_cast<double>(b),
              static_cast<double>(a) * 0.02);
}

TEST(Harness, BandwidthMonotoneInMessageSize) {
  // Bigger messages amortize per-message overheads: bandwidth must be
  // non-decreasing across the sweep (within tolerance).
  double prev = 0;
  for (std::uint64_t size : {512ull, 4096ull, 32768ull, 262144ull}) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
    double bw = twonode_bandwidth(*c, size, 32, TwoNodeOptions{}).mbps;
    EXPECT_GE(bw, prev * 0.98) << "size " << size;
    prev = bw;
  }
}

TEST(Harness, LatencyMonotoneInMessageSize) {
  Time prev = 0;
  for (std::uint64_t size : {32ull, 512ull, 4096ull, 32768ull}) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
    Time lat = pingpong_latency(*c, size, 40, TwoNodeOptions{});
    EXPECT_GE(lat, prev) << "size " << size;
    prev = lat;
  }
}

TEST(Harness, HostOverheadBelowLatency) {
  // The LogP overhead o is the non-overlapped fraction: it must be well
  // below the full one-way latency.
  sim::Simulator s1, s2;
  auto c1 = Cluster::make_cluster_i(s1, 2, ApenetParams{}, false);
  auto c2 = Cluster::make_cluster_i(s2, 2, ApenetParams{}, false);
  Time o = host_overhead(*c1, 512, 64, TwoNodeOptions{});
  Time lat = pingpong_latency(*c2, 512, 64, TwoNodeOptions{});
  EXPECT_LT(o, lat);
  EXPECT_GT(o, 0);
}

TEST(Harness, LoopbackFlushFasterThanFullPath) {
  auto bw = [](bool flush) {
    sim::Simulator sim;
    ApenetParams p;
    p.flush_at_switch = flush;
    auto c = Cluster::make_cluster_i(sim, 1, p, false);
    return loopback_bandwidth(*c, 0, MemType::kHost, 1 << 20, 16).mbps;
  };
  EXPECT_GT(bw(true), bw(false) * 1.5);
}

TEST(Harness, IbBandwidthSaneAndOrdered) {
  sim::Simulator s1, s2;
  auto c1 = Cluster::make_cluster_ii(s1, 2);
  auto c2 = Cluster::make_cluster_ii(s2, 2);
  auto hh = ib_hh_bandwidth(*c1, 1 << 20, 8);
  auto gg = ib_gg_bandwidth(*c2, 1 << 20, 8);
  EXPECT_GT(hh.mbps, gg.mbps);  // GPU path pays the staging pipeline
  EXPECT_GT(gg.mbps, 500.0);
}

/// Where the next host and device buffers on `node` land. Two clusters
/// built alike agree on it unless one of them has allocated a buffer.
std::pair<std::uint64_t, std::uint64_t> next_buffers(Node& node) {
  return {node.hostmem().alloc(64), node.cuda().malloc_device(0, 64)};
}

/// `call(cluster, n)` must throw std::invalid_argument for n = 0 and n = -1
/// before it allocates any buffer on either node.
template <typename Call>
void expect_rejects_bad_count(bool ib, Call call) {
  auto make = [ib](sim::Simulator& sim) {
    return ib ? Cluster::make_cluster_ii(sim, 2)
              : Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  };
  for (int n : {0, -1}) {
    SCOPED_TRACE("count " + std::to_string(n));
    sim::Simulator sim, fresh_sim;
    std::unique_ptr<Cluster> c = make(sim);
    std::unique_ptr<Cluster> fresh = make(fresh_sim);
    EXPECT_THROW(call(*c, n), std::invalid_argument);
    for (int i = 0; i < c->size(); ++i)
      EXPECT_EQ(next_buffers(c->node(i)), next_buffers(fresh->node(i)));
  }
}

TEST(Harness, LoopbackBandwidthRejectsNoMessages) {
  expect_rejects_bad_count(false, [](Cluster& c, int n) {
    loopback_bandwidth(c, 0, MemType::kHost, 4096, n);
  });
}

TEST(Harness, TwoNodeBandwidthRejectsNoMessages) {
  expect_rejects_bad_count(false, [](Cluster& c, int n) {
    twonode_bandwidth(c, 4096, n, TwoNodeOptions{});
  });
}

TEST(Harness, PingpongLatencyRejectsNoReps) {
  expect_rejects_bad_count(false, [](Cluster& c, int n) {
    pingpong_latency(c, 32, n, TwoNodeOptions{});
  });
}

TEST(Harness, HostOverheadRejectsNoMessages) {
  expect_rejects_bad_count(false, [](Cluster& c, int n) {
    host_overhead(c, 512, n, TwoNodeOptions{});
  });
}

TEST(Harness, IbBandwidthRejectsNoMessages) {
  expect_rejects_bad_count(true, [](Cluster& c, int n) {
    ib_hh_bandwidth(c, 4096, n);
  });
  expect_rejects_bad_count(true, [](Cluster& c, int n) {
    ib_gg_bandwidth(c, 4096, n);
  });
}

TEST(Harness, IbLatencyRejectsNoReps) {
  expect_rejects_bad_count(true, [](Cluster& c, int n) {
    ib_hh_latency(c, 32, n);
  });
  expect_rejects_bad_count(true, [](Cluster& c, int n) {
    ib_gg_latency(c, 32, n);
  });
}

}  // namespace
}  // namespace apn::cluster
