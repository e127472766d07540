// Randomized stress / property tests of the simulation primitives: the
// invariants every higher layer depends on, under adversarial interleaving.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "sim/channel.hpp"
#include "sim/coro.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"

namespace apn::sim {
namespace {

TEST(SimStress, QueueNeverLosesOrDuplicatesItems) {
  Rng rng(404);
  Simulator sim;
  Queue<int> q(sim);
  std::vector<int> got;
  const int kItems = 2000;
  // Producers at random times.
  for (int i = 0; i < kItems; ++i) {
    sim.after(static_cast<Time>(rng.next_below(100000)),
              [&q, i] { q.push(i); });
  }
  // Consumers started at random times, each popping a random batch.
  int remaining = kItems;
  while (remaining > 0) {
    int batch = static_cast<int>(rng.next_below(7)) + 1;
    batch = std::min(batch, remaining);
    remaining -= batch;
    sim.after(static_cast<Time>(rng.next_below(100000)),
              [&q, &got, batch, &sim] {
                (void)sim;
                [](Queue<int>& q, std::vector<int>& got, int n) -> Coro {
                  for (int i = 0; i < n; ++i) got.push_back(co_await q.pop());
                }(q, got, batch);
              });
  }
  sim.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
  std::sort(got.begin(), got.end());
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(SimStress, CreditPoolConservesCredits) {
  Rng rng(77);
  Simulator sim;
  CreditPool pool(sim, 1000);
  auto outstanding = std::make_shared<std::int64_t>(0);
  auto peak = std::make_shared<std::int64_t>(0);
  for (int i = 0; i < 500; ++i) {
    std::int64_t need = static_cast<std::int64_t>(rng.next_below(300)) + 1;
    Time hold = static_cast<Time>(rng.next_below(5000)) + 1;
    sim.after(static_cast<Time>(rng.next_below(50000)),
              [&pool, &sim, need, hold, outstanding, peak] {
                [](Simulator& sim, CreditPool& pool, std::int64_t need,
                   Time hold, std::shared_ptr<std::int64_t> outstanding,
                   std::shared_ptr<std::int64_t> peak) -> Coro {
                  co_await pool.acquire(need);
                  *outstanding += need;
                  *peak = std::max(*peak, *outstanding);
                  EXPECT_LE(*outstanding, 1000);
                  co_await delay(sim, hold);
                  *outstanding -= need;
                  pool.release(need);
                }(sim, pool, need, hold, outstanding, peak);
              });
  }
  sim.run();
  EXPECT_EQ(*outstanding, 0);
  EXPECT_EQ(pool.available(), 1000);
  EXPECT_GT(*peak, 500);  // the pool actually saturated at some point
}

TEST(SimStress, CreditPoolOfOnesNeverOversubscribes) {
  Rng rng(99);
  Simulator sim;
  CreditPool pool(sim, 3);
  auto active = std::make_shared<int>(0);
  auto completed = std::make_shared<int>(0);
  for (int i = 0; i < 300; ++i) {
    sim.after(static_cast<Time>(rng.next_below(30000)), [&, active,
                                                         completed] {
      [](Simulator& sim, CreditPool& pool, std::shared_ptr<int> active,
         std::shared_ptr<int> completed, Time hold) -> Coro {
        co_await pool.acquire(1);
        ++*active;
        EXPECT_LE(*active, 3);
        co_await delay(sim, hold);
        --*active;
        ++*completed;
        pool.release(1);
      }(sim, pool, active, completed,
        static_cast<Time>(rng.next_below(900)) + 1);
    });
  }
  sim.run();
  EXPECT_EQ(*completed, 300);
  EXPECT_EQ(pool.available(), 3);
}

TEST(SimStress, ResourceBusyTimeEqualsSumOfJobs) {
  Rng rng(3);
  Simulator sim;
  Resource res(sim);
  Time total = 0;
  for (int i = 0; i < 400; ++i) {
    Time dur = static_cast<Time>(rng.next_below(2000));
    total += dur;
    sim.after(static_cast<Time>(rng.next_below(10000)),
              [&res, dur] { res.post(dur); });
  }
  sim.run();
  EXPECT_EQ(res.busy_time(), total);
  EXPECT_EQ(res.jobs_completed(), 400u);
}

TEST(SimStress, ChannelDeliversInOrderUnderRandomSizes) {
  Rng rng(12);
  Simulator sim;
  Channel ch(sim, ChannelParams{Rate(1e9), units::ns(30), units::us(2)});
  std::vector<int> order;
  for (int i = 0; i < 500; ++i) {
    ch.send(Bytes(rng.next_below(9000) + 1),
            [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 500u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(SimStress, GatesWithManyWaitersAllResume) {
  Simulator sim;
  Gate gate(sim);
  auto count = std::make_shared<int>(0);
  for (int i = 0; i < 1000; ++i) {
    [](Gate& g, std::shared_ptr<int> count) -> Coro {
      co_await g.wait();
      ++*count;
    }(gate, count);
  }
  sim.after(units::us(5), [&] { gate.open(); });
  sim.run();
  EXPECT_EQ(*count, 1000);
}

TEST(SimStress, DeterministicUnderIdenticalSeeds) {
  auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    Simulator sim;
    Resource res(sim);
    CreditPool pool(sim, 256);
    std::uint64_t checksum = 0;
    for (int i = 0; i < 300; ++i) {
      Time at = static_cast<Time>(rng.next_below(40000));
      std::int64_t need = static_cast<std::int64_t>(rng.next_below(64)) + 1;
      sim.after(at, [&, need] {
        [](Simulator& sim, Resource& res, CreditPool& pool, std::int64_t n,
           std::uint64_t* sum) -> Coro {
          co_await pool.acquire(n);
          co_await res.use(static_cast<Time>(n * 10));
          *sum = *sum * 31 + static_cast<std::uint64_t>(sim.now());
          pool.release(n);
        }(sim, res, pool, need, &checksum);
      });
    }
    sim.run();
    return std::make_pair(checksum, sim.events_processed());
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42).first, run(43).first);
}

}  // namespace
}  // namespace apn::sim
