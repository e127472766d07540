#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "cluster/cluster.hpp"
#include "ib/hca.hpp"

namespace apn::ib {
namespace {

using cluster::Cluster;
using units::us;

struct IbFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<Cluster> c;

  void SetUp() override { c = Cluster::make_cluster_ii(sim, 2, /*with_mpi=*/false); }
  Hca& hca(int i) { return c->node(i).hca(); }
};

TEST_F(IbFixture, InlineSendDeliversPayload) {
  std::vector<std::uint8_t> payload(500);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i);
  hca(0).post_send_inline(1, payload, 77);
  IbRecvEvent got;
  [](Hca& h, IbRecvEvent* out) -> sim::Coro {
    *out = co_await h.recv_events().pop();
  }(hca(1), &got);
  sim.run();
  EXPECT_EQ(got.src_rank, 0);
  EXPECT_EQ(got.wr_id, 77u);
  EXPECT_EQ(got.bytes, 500u);
  EXPECT_EQ(got.inline_data, payload);
}

TEST_F(IbFixture, RdmaWriteLandsInPinnedMemory) {
  const std::uint64_t src = c->node(0).hostmem().alloc(8192);
  const std::uint64_t dst = c->node(1).hostmem().alloc(8192);
  std::span<std::uint8_t> in = c->node(0).hostmem().bytes(src, 8192);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<std::uint8_t>(i * 3);
  bool sent = false;
  hca(0).post_send(1, src, 8192, dst, 42, true, [&] { sent = true; });
  IbRecvEvent got;
  [](Hca& h, IbRecvEvent* out) -> sim::Coro {
    *out = co_await h.recv_events().pop();
  }(hca(1), &got);
  sim.run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(got.wr_id, 42u);
  EXPECT_TRUE(
      std::ranges::equal(c->node(1).hostmem().bytes(dst, 8192), in));
}

TEST_F(IbFixture, StraySourceAddressSendsTimingOnly) {
  // DMA keeps the bus contract: a source outside every allocation is read
  // as timing-only, so nothing lands at the destination.
  const std::uint64_t dst = c->node(1).hostmem().alloc(8192);
  hca(0).post_send(1, 0x4000, 8192, dst, 7, true);
  IbRecvEvent got;
  [](Hca& h, IbRecvEvent* out) -> sim::Coro {
    *out = co_await h.recv_events().pop();
  }(hca(1), &got);
  sim.run();
  EXPECT_EQ(got.wr_id, 7u);
  EXPECT_EQ(got.bytes, 8192u);
  EXPECT_EQ(c->node(1).hostmem().backed_bytes(), 0u);
}

TEST_F(IbFixture, LargeTransferBandwidthNearLinkRate) {
  // x8 slot: DMA-read window and QDR wire allow ~3 GB/s.
  const std::uint64_t total = 8ull << 20;
  const std::uint64_t dst = c->node(1).hostmem().alloc(1 << 20);
  auto t = std::make_shared<std::pair<Time, Time>>(0, 0);
  const int count = 8;
  t->first = sim.now();
  for (int i = 0; i < count; ++i)
    hca(0).post_send(1, 0x4000, 1 << 20, dst, static_cast<std::uint64_t>(i),
                     false);
  [](Hca& h, int count, std::shared_ptr<std::pair<Time, Time>> t,
     sim::Simulator* sim) -> sim::Coro {
    for (int i = 0; i < count; ++i) co_await h.recv_events().pop();
    t->second = sim->now();
  }(hca(1), count, t, &sim);
  sim.run();
  double mbps = units::bandwidth_MBps(Bytes(total), t->second - t->first);
  EXPECT_GT(mbps, 2500.0);
  EXPECT_LT(mbps, 3700.0);
}

TEST_F(IbFixture, SmallMessageLatencyMicroseconds) {
  auto t0 = std::make_shared<Time>(0);
  auto t1 = std::make_shared<Time>(0);
  *t0 = sim.now();
  hca(0).post_send_inline(1, std::vector<std::uint8_t>(32), 1);
  [](Hca& h, std::shared_ptr<Time> t, sim::Simulator* sim) -> sim::Coro {
    co_await h.recv_events().pop();
    *t = sim->now();
  }(hca(1), t1, &sim);
  sim.run();
  Time lat = *t1 - *t0;
  // Verbs-level one-way: a couple of microseconds.
  EXPECT_GT(lat, us(1.0));
  EXPECT_LT(lat, us(4.0));
}

TEST(IbSlotWidth, X4SlotHalvesBandwidth) {
  auto measure = [](pcie::LinkParams slot) {
    sim::Simulator sim;
    cluster::NodeConfig cfg;
    cfg.gpus = {gpu::fermi_c2050()};
    cfg.has_apenet = false;
    cfg.has_ib = true;
    cfg.mpi_ranks = false;
    cfg.ib_slot = slot;
    Cluster c(sim, core::TorusShape{2, 1, 1}, cfg);
    const std::uint64_t dst = c.node(1).hostmem().alloc(1 << 20);
    auto t = std::make_shared<Time>(0);
    const int count = 8;
    for (int i = 0; i < count; ++i)
      c.node(0).hca().post_send(1, 0x4000, 1 << 20, dst,
                                static_cast<std::uint64_t>(i), false);
    [](Hca& h, int count, std::shared_ptr<Time> t,
       sim::Simulator* sim) -> sim::Coro {
      for (int i = 0; i < count; ++i) co_await h.recv_events().pop();
      *t = sim->now();
    }(c.node(1).hca(), count, t, &sim);
    sim.run();
    return units::bandwidth_MBps(Bytes(count * (1ull << 20)), *t);
  };
  double x8 = measure(pcie::gen2_x8());
  double x4 = measure(pcie::gen2_x4());
  EXPECT_LT(x4, x8 * 0.7);
  EXPECT_GT(x4, 1200.0);  // paper-era x4 IB ~1.5-1.8 GB/s
}

TEST_F(IbFixture, InterleavedEagerMessagesFromTwoSourcesReassemble) {
  auto c3 = Cluster::make_cluster_ii(sim, 3, /*with_mpi=*/false);
  std::vector<std::uint8_t> a(9000, 0xAA), b(9000, 0xBB);
  c3->node(0).hca().post_send_inline(2, a, 1);
  c3->node(1).hca().post_send_inline(2, b, 2);
  std::vector<IbRecvEvent> got;
  [](Hca& h, std::vector<IbRecvEvent>* got) -> sim::Coro {
    got->push_back(co_await h.recv_events().pop());
    got->push_back(co_await h.recv_events().pop());
  }(c3->node(2).hca(), &got);
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  for (const auto& ev : got) {
    ASSERT_EQ(ev.inline_data.size(), 9000u);
    std::uint8_t expect = ev.src_rank == 0 ? 0xAA : 0xBB;
    for (auto v : ev.inline_data) ASSERT_EQ(v, expect);
  }
}

}  // namespace
}  // namespace apn::ib
