// RDMA-native collectives over APEnet+ (barrier / allreduce built on PUTs).
#include <gtest/gtest.h>

#include "cluster/collectives.hpp"
#include "host_bytes.hpp"

namespace apn::cluster {
namespace {

using core::ApenetParams;
using core::MemType;
using units::us;

struct CollFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<Cluster> c;
  std::unique_ptr<Collectives> coll;

  void init(int np) {
    c = Cluster::make_cluster_i(sim, np, ApenetParams{}, false);
    coll = std::make_unique<Collectives>(*c);
    auto done = coll->setup();
    sim.run();
    ASSERT_TRUE(done.ready());
  }
};

TEST_F(CollFixture, BarrierHoldsUntilAllEnter) {
  init(4);
  auto order = std::make_shared<std::vector<int>>();
  for (int r = 0; r < 4; ++r) {
    [](Collectives* coll, sim::Simulator* sim, int r,
       std::shared_ptr<std::vector<int>> order) -> sim::Coro {
      co_await sim::delay(*sim, us(15) * (r + 1));
      co_await coll->barrier(r);
      order->push_back(r);
      // Nobody may pass before the last rank arrived at 60 us.
      EXPECT_GE(sim->now(), us(60));
    }(coll.get(), &sim, r, order);
  }
  sim.run();
  EXPECT_EQ(order->size(), 4u);
}

TEST_F(CollFixture, BarrierRepeatsAcrossEpochs) {
  init(4);
  auto counter = std::make_shared<int>(0);
  for (int r = 0; r < 4; ++r) {
    [](Collectives* coll, int r, std::shared_ptr<int> counter,
       sim::Simulator* sim) -> sim::Coro {
      for (int e = 0; e < 5; ++e) {
        co_await sim::delay(*sim, us(static_cast<double>((r * 7 + e) % 5)));
        co_await coll->barrier(r);
        // All ranks must be in the same epoch when anyone passes.
        ++*counter;
      }
    }(coll.get(), r, counter, &sim);
  }
  sim.run();
  EXPECT_EQ(*counter, 20);
}

TEST_F(CollFixture, AllreduceSumsAcrossEightRanks) {
  init(8);
  auto results = std::make_shared<std::vector<std::uint64_t>>(8, 0);
  for (int r = 0; r < 8; ++r) {
    [](Collectives* coll, int r,
       std::shared_ptr<std::vector<std::uint64_t>> out) -> sim::Coro {
      std::uint64_t v = static_cast<std::uint64_t>(r + 1);
      (*out)[static_cast<std::size_t>(r)] =
          co_await coll->allreduce_sum(r, v);
    }(coll.get(), r, results);
  }
  sim.run();
  for (int r = 0; r < 8; ++r)
    EXPECT_EQ((*results)[static_cast<std::size_t>(r)], 36u);  // 1+..+8
}

TEST_F(CollFixture, AllreduceSequencesKeepEpochsSeparate) {
  init(2);
  auto sums = std::make_shared<std::vector<std::uint64_t>>();
  for (int r = 0; r < 2; ++r) {
    [](Collectives* coll, int r,
       std::shared_ptr<std::vector<std::uint64_t>> sums) -> sim::Coro {
      for (std::uint64_t e = 1; e <= 3; ++e) {
        std::uint64_t s = co_await coll->allreduce_sum(
            r, e * 10 + static_cast<std::uint64_t>(r));
        if (r == 0) sums->push_back(s);
      }
    }(coll.get(), r, sums);
  }
  sim.run();
  ASSERT_EQ(sums->size(), 3u);
  EXPECT_EQ((*sums)[0], 21u);  // 10 + 11
  EXPECT_EQ((*sums)[1], 41u);  // 20 + 21
  EXPECT_EQ((*sums)[2], 61u);
}

TEST_F(CollFixture, NonCollectiveTrafficIsForwarded) {
  init(2);
  const std::vector<std::uint8_t> data(256, 0x5E);
  const std::uint64_t src = test_util::host_buf(c->node(0).hostmem(), data);
  const std::uint64_t dst = c->node(1).hostmem().alloc(256);
  core::RdmaEvent got{};
  [](Cluster* c, Collectives* coll, std::uint64_t src, std::uint64_t dst,
     core::RdmaEvent* got) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, 256, MemType::kHost);
    // Interleave with a barrier to prove routing separates the streams.
    c->rdma(0).put(c->coord(1), src, 256, dst, MemType::kHost);
    *got = co_await coll->events(1).pop();
  }(c.get(), coll.get(), src, dst, &got);
  [](Collectives* coll) -> sim::Coro {
    co_await coll->barrier(0);
  }(coll.get());
  [](Collectives* coll) -> sim::Coro {
    co_await coll->barrier(1);
  }(coll.get());
  sim.run();
  EXPECT_EQ(got.bytes, 256u);
  EXPECT_EQ(test_util::host_bytes(c->node(1).hostmem(), dst, 256), data);
}

TEST_F(CollFixture, BarrierCostMicroseconds) {
  init(8);
  Time t0 = -1, t1 = -1;
  [](Collectives* coll, sim::Simulator* sim, Time* t0, Time* t1) -> sim::Coro {
    *t0 = sim->now();
    co_await coll->barrier(0);
    *t1 = sim->now();
  }(coll.get(), &sim, &t0, &t1);
  for (int r = 1; r < 8; ++r) {
    [](Collectives* coll, int r) -> sim::Coro {
      co_await coll->barrier(r);
    }(coll.get(), r);
  }
  sim.run();
  // log2(8) = 3 rounds of one-way PUT latency: tens of microseconds.
  EXPECT_GT(t1 - t0, us(10));
  EXPECT_LT(t1 - t0, us(80));
}

}  // namespace
}  // namespace apn::cluster
