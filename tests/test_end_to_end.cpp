// Cross-module integration: full data paths through PCIe + GPU + card +
// torus + RDMA API, exercised in combinations the unit tests don't cover.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "common/rng.hpp"
#include "host_bytes.hpp"

namespace apn {
namespace {

using cluster::Cluster;
using core::ApenetParams;
using core::MemType;
using units::us;

TEST(EndToEnd, GpuToGpuAcrossThreeHopsPreservesData) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 8, ApenetParams{}, false);
  int far = c->shape().index({2, 1, 0});
  cuda::Runtime& cu0 = c->node(0).cuda();
  cuda::Runtime& cuF = c->node(far).cuda();
  const std::uint64_t n = 256 * 1024;
  cuda::DevPtr src = cu0.malloc_device(0, n);
  cuda::DevPtr dst = cuF.malloc_device(0, n);
  std::vector<std::uint8_t> data(n);
  Rng rng(2026);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  cu0.upload(src, std::as_bytes(std::span(data)));

  [](Cluster* c, int far, cuda::DevPtr src, cuda::DevPtr dst,
     std::uint64_t n) -> sim::Coro {
    co_await c->rdma(far).register_buffer(dst, n, MemType::kGpu);
    c->rdma(0).put(c->coord(far), src, n, dst, MemType::kGpu);
    co_await c->rdma(far).events().pop();
  }(c.get(), far, src, dst, n);
  sim.run();

  std::vector<std::uint8_t> out(n);
  cuF.download(dst, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out, data);
}

TEST(EndToEnd, BidirectionalTrafficBothDirectionsComplete) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  const std::uint64_t b[2] = {c->node(0).hostmem().alloc(65536),
                              c->node(1).hostmem().alloc(65536)};
  auto done = std::make_shared<int>(0);
  for (int me = 0; me < 2; ++me) {
    [](Cluster* c, int me, std::uint64_t mine, std::uint64_t theirs,
       std::shared_ptr<int> done) -> sim::Coro {
      co_await c->rdma(me).register_buffer(mine, 65536, MemType::kHost);
      const std::uint64_t src = test_util::host_buf(
          c->node(me).hostmem(),
          std::vector<std::uint8_t>(65536, static_cast<std::uint8_t>(me + 10)));
      // Give the peer a moment to register.
      co_await sim::delay(c->simulator(), us(100));
      c->rdma(me).put(c->coord(1 - me), src, 65536, theirs, MemType::kHost);
      co_await c->rdma(me).events().pop();
      ++*done;
    }(c.get(), me, b[me], b[1 - me], done);
  }
  sim.run();
  EXPECT_EQ(*done, 2);
  EXPECT_EQ(c->node(0).hostmem().bytes(b[0] + 100, 1)[0], 11);  // by node 1
  EXPECT_EQ(c->node(1).hostmem().bytes(b[1] + 100, 1)[0], 10);  // by node 0
}

TEST(EndToEnd, MixedHostAndGpuTrafficInterleaves) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  const std::uint64_t n = 32768;
  cuda::DevPtr gdst = c->node(1).cuda().malloc_device(0, n);
  const std::uint64_t hdst = c->node(1).hostmem().alloc(n);
  cuda::DevPtr gsrc = c->node(0).cuda().malloc_device(0, n);
  const std::uint64_t hsrc = test_util::host_buf(
      c->node(0).hostmem(), std::vector<std::uint8_t>(n, 0x21));
  std::vector<std::uint8_t> gdata(n, 0x42);
  c->node(0).cuda().upload(gsrc, std::as_bytes(std::span(gdata)));

  [](Cluster* c, cuda::DevPtr gsrc, cuda::DevPtr gdst, std::uint64_t hsrc,
     std::uint64_t hdst, std::uint64_t n) -> sim::Coro {
    co_await c->rdma(1).register_buffer(gdst, n, MemType::kGpu);
    co_await c->rdma(1).register_buffer(hdst, n, MemType::kHost);
    // Interleave 8 GPU-source and 8 host-source puts.
    for (int i = 0; i < 8; ++i) {
      c->rdma(0).put(c->coord(1), gsrc, n / 8, gdst + (n / 8) * i,
                     MemType::kGpu);
      c->rdma(0).put(c->coord(1), hsrc, n / 8, hdst + (n / 8) * i,
                     MemType::kHost);
    }
    for (int i = 0; i < 16; ++i) co_await c->rdma(1).events().pop();
  }(c.get(), gsrc, gdst, hsrc, hdst, n);
  sim.run();

  std::vector<std::uint8_t> gout(n);
  c->node(1).cuda().download(gdst, std::as_writable_bytes(std::span(gout)));
  const std::vector<std::uint8_t> hout =
      test_util::host_bytes(c->node(1).hostmem(), hdst, n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(gout[i], 0x42);
    ASSERT_EQ(hout[i], 0x21);
  }
}

TEST(EndToEnd, SimulationIsDeterministic) {
  auto run_once = [] {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
    auto bw = cluster::twonode_bandwidth(*c, 65536, 16,
                                         cluster::TwoNodeOptions{});
    return std::make_pair(bw.elapsed, sim.events_processed());
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(EndToEnd, BackToBackMessagesKeepFifoOrder) {
  // Messages between the same pair must complete in submission order
  // (APEnet+ static routing is in-order).
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  const std::uint64_t dst = c->node(1).hostmem().alloc(8);
  std::vector<std::uint64_t> order;
  [](Cluster* c, std::uint64_t dst,
     std::vector<std::uint64_t>* order) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, 8, MemType::kHost);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 10; ++i) {
      const std::uint64_t src = test_util::host_buf(
          c->node(0).hostmem(),
          std::vector<std::uint8_t>(8, static_cast<std::uint8_t>(i)));
      auto p = c->rdma(0).put(c->coord(1), src, 8, dst, MemType::kHost);
      ids.push_back(p.msg_id);
    }
    for (int i = 0; i < 10; ++i) {
      core::RdmaEvent ev = co_await c->rdma(1).events().pop();
      order->push_back(ev.msg_id);
    }
    EXPECT_EQ(*order, ids);
  }(c.get(), dst, &order);
  sim.run();
  EXPECT_EQ(c->node(1).hostmem().bytes(dst, 1)[0], 9);  // last writer wins
}

}  // namespace
}  // namespace apn
