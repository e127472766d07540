#include <gtest/gtest.h>

#include <vector>

#include "check/coro_check.hpp"
#include "sim/coro.hpp"
#include "sim/resource.hpp"

namespace apn::sim {
namespace {

using units::us;

TEST(Resource, SerializesJobs) {
  Simulator sim;
  Resource res(sim);
  std::vector<Time> done_at;
  for (int i = 0; i < 3; ++i)
    res.post(us(10), [&] { done_at.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_EQ(done_at[0], us(10));
  EXPECT_EQ(done_at[1], us(20));
  EXPECT_EQ(done_at[2], us(30));
}

TEST(Resource, AwaitableUse) {
  Simulator sim;
  Resource res(sim);
  Time a = -1, b = -1;
  [](Simulator& sim, Resource& r, Time& t) -> Coro {
    co_await r.use(us(5));
    t = sim.now();
  }(sim, res, a);
  [](Simulator& sim, Resource& r, Time& t) -> Coro {
    co_await r.use(us(5));
    t = sim.now();
  }(sim, res, b);
  sim.run();
  EXPECT_EQ(a, us(5));
  EXPECT_EQ(b, us(10));
}

TEST(Resource, IdleGapsDoNotAccumulate) {
  Simulator sim;
  Resource res(sim);
  Time done = -1;
  sim.after(us(100), [&] {
    res.post(us(5), [&] { done = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(done, us(105));
}

TEST(Resource, UtilizationAccounting) {
  Simulator sim;
  Resource res(sim);
  res.post(us(30));
  sim.after(us(100), [] {});  // extend sim time to 100 us
  sim.run();
  EXPECT_EQ(res.busy_time(), us(30));
  EXPECT_NEAR(res.utilization(), 0.3, 1e-9);
  EXPECT_EQ(res.jobs_completed(), 1u);
}

TEST(Resource, QueueLengthVisible) {
  Simulator sim;
  Resource res(sim);
  res.post(us(10));
  res.post(us(10));
  res.post(us(10));
  EXPECT_TRUE(res.busy());
  EXPECT_EQ(res.queue_length(), 2u);  // one in service, two queued
  sim.run();
  EXPECT_FALSE(res.busy());
  EXPECT_EQ(res.queue_length(), 0u);
}

TEST(Resource, ZeroDurationJobsComplete) {
  Simulator sim;
  Resource res(sim);
  int n = 0;
  for (int i = 0; i < 5; ++i) res.post(0, [&] { ++n; });
  sim.run();
  EXPECT_EQ(n, 5);
}

TEST(Resource, FifoAcrossWrapAroundAndGrowthWhileBusy) {
  Simulator sim;
  Resource res(sim);
  std::vector<int> order;
  int next_id = 0;
  auto post_n = [&](int n) {
    for (int i = 0; i < n; ++i)
      res.post(us(1), [&order, id = next_id++] { order.push_back(id); });
  };
  post_n(6);  // one in service, five queued
  EXPECT_EQ(res.queue_length(), 5u);
  sim.run_until(us(4));  // jobs 0-3 done, 4 in service, 5 queued
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(res.queue_length(), 1u);
  // The queue's front is now deep into the ring: these wrap around its
  // end and then outgrow it while the server stays busy.
  post_n(12);
  EXPECT_EQ(res.queue_length(), 13u);
  EXPECT_TRUE(res.busy());
  sim.run_until(us(10));
  EXPECT_EQ(res.queue_length(), 7u);
  post_n(40);  // grows again, from a wrapped state
  EXPECT_EQ(res.queue_length(), 47u);
  sim.run();
  EXPECT_EQ(res.queue_length(), 0u);
  EXPECT_FALSE(res.busy());
  ASSERT_EQ(order.size(), 58u);
  for (int i = 0; i < 58; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(res.jobs_completed(), 58u);
  EXPECT_EQ(sim.now(), us(58));
}

TEST(Resource, MixedJobKindsKeepFifoOrder) {
  Simulator sim;
  Resource res(sim);
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    if (i % 3 == 0) {
      res.post(us(1), [&order, i] { order.push_back(i); });
    } else if (i % 3 == 1) {
      [](Resource& r, std::vector<int>& o, int id) -> Coro {
        co_await r.use(us(1));
        o.push_back(id);
      }(res, order, i);
    } else {
      [](Resource& r, std::vector<int>& o, int id) -> Coro {
        struct Resume {
          Resource& r;
          bool await_ready() const noexcept { return false; }
          void await_suspend(std::coroutine_handle<> h) {
            r.post_resume(us(1), h, 0);
          }
          void await_resume() const noexcept {}
        };
        co_await Resume{r};
        o.push_back(id);
      }(res, order, i);
    }
  }
  EXPECT_EQ(res.queue_length(), 19u);
  sim.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Resource, DestructionReclaimsQueuedCoroutinesAcrossWrap) {
  namespace coro = check::coro;
  struct Tracking {
    Tracking() { coro::force_enable(true); }
    ~Tracking() { coro::force_enable(false); }
  } on;
  const std::size_t live_before = coro::live_count();
  const std::uint64_t destroyed_before = coro::destroyed_count();
  {
    Simulator sim;
    Resource res(sim);
    auto user = [](Resource& r) -> Coro { co_await r.use(us(1)); };
    // Advance the ring's front so the queued frames below wrap around.
    for (int i = 0; i < 6; ++i) res.post(us(1));
    sim.run();
    res.post(us(1));  // callback job in service
    for (int i = 0; i < 11; ++i) user(res);  // wraps, then grows
    EXPECT_EQ(res.queue_length(), 11u);
    EXPECT_EQ(coro::live_count() - live_before, 11u);
    sim.run_until(us(10));  // three frames served, one in flight
    EXPECT_EQ(res.queue_length(), 7u);
    EXPECT_EQ(coro::live_count() - live_before, 8u);
  }
  // The in-flight frame and the seven queued ones were destroyed with the
  // server; the three served ones finished normally.
  EXPECT_EQ(coro::live_count(), live_before);
  EXPECT_EQ(coro::destroyed_count() - destroyed_before, 11u);
}

}  // namespace
}  // namespace apn::sim
