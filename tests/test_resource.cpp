#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/coro_check.hpp"
#include "common/rng.hpp"
#include "queued_server.hpp"
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

TEST(Resource, BusyUntilLastJobEnds) {
  Simulator sim;
  Resource res(sim);
  res.post(us(10));
  res.post(us(10));
  res.post(us(10));
  EXPECT_TRUE(res.busy());
  sim.run_until(us(25));  // two jobs done, the third in service
  EXPECT_TRUE(res.busy());
  sim.run();
  EXPECT_FALSE(res.busy());
  EXPECT_EQ(sim.now(), us(30));
}

TEST(Resource, ZeroDurationJobsComplete) {
  Simulator sim;
  Resource res(sim);
  int n = 0;
  for (int i = 0; i < 5; ++i) res.post(0, [&] { ++n; });
  sim.run();
  EXPECT_EQ(n, 5);
}

// The posting pattern that once wrapped and grew a job ring: bursts posted
// while the server is part-way through a backlog.
TEST(Resource, FifoAcrossWrapAroundAndGrowthWhileBusy) {
  Simulator sim;
  Resource res(sim);
  std::vector<int> order;
  int next_id = 0;
  auto post_n = [&](int n) {
    for (int i = 0; i < n; ++i)
      res.post(us(1), [&order, id = next_id++] { order.push_back(id); });
  };
  post_n(6);
  sim.run_until(us(4));  // jobs 0-3 done, 4 in service, 5 queued
  ASSERT_EQ(order.size(), 4u);
  post_n(12);
  EXPECT_TRUE(res.busy());
  sim.run_until(us(10));
  ASSERT_EQ(order.size(), 10u);
  post_n(40);
  sim.run();
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
      // A callback job that schedules the resume as an event of its own.
      [](Simulator& sim, Resource& r, std::vector<int>& o, int id) -> Coro {
        struct Resume {
          Simulator& sim;
          Resource& r;
          bool await_ready() const noexcept { return false; }
          void await_suspend(std::coroutine_handle<> h) {
            r.post(us(1), [s = &sim, h] { s->schedule_resume(h); });
          }
          void await_resume() const noexcept {}
        };
        co_await Resume{sim, r};
        o.push_back(id);
      }(sim, res, order, i);
    }
  }
  sim.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// A frame parked in use() waits in the Simulator's queues, whose teardown
// reclaims it; the Resource holds no job.
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
    for (int i = 0; i < 6; ++i) res.post(us(1));
    sim.run();
    res.post(us(1));  // callback job in service
    for (int i = 0; i < 11; ++i) user(res);
    EXPECT_EQ(coro::live_count() - live_before, 11u);
    sim.run_until(us(10));  // three frames served, one in flight
    EXPECT_EQ(coro::live_count() - live_before, 8u);
  }
  // The in-flight frame and the seven queued ones were destroyed with the
  // simulator; the three served ones finished normally.
  EXPECT_EQ(coro::live_count(), live_before);
  EXPECT_EQ(coro::destroyed_count() - destroyed_before, 11u);
}

// A job's completion event is numbered when the job is posted, so an event
// that job 0's completion schedules for job 1's end time runs after job 1's
// completion. (A queued server numbered job 1's completion only when job 0
// ended and ran such an event first; no model output depends on this.)
TEST(Resource, CompletionIsSequencedAtPost) {
  Simulator sim;
  Resource res(sim);
  std::vector<int> order;
  res.post(us(1), [&] { sim.after(us(1), [&] { order.push_back(2); }); });
  res.post(us(1), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  Simulator ref_sim;
  test_util::QueuedServer ref(ref_sim);
  order.clear();
  ref.post(us(1),
           [&] { ref_sim.after(us(1), [&] { order.push_back(2); }); });
  ref.post(us(1), [&] { order.push_back(1); });
  ref_sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

/// One job's completion: its id (ids are handed out in posting order) and
/// when it completed.
struct Completion {
  int id = -1;
  Time at = -1;
  bool operator==(const Completion&) const = default;
};

/// Drives a server of type S with a seeded random schedule: bursts of
/// callback and coroutine jobs (a fifth of them zero-duration) at random
/// times with idle gaps between bursts, where some completions post a
/// further job from inside the completion. Returns the completions in the
/// order they ran.
template <typename S>
std::vector<Completion> drive(std::uint64_t seed) {
  struct Run {
    Simulator sim;
    S server{sim};
    Rng rng;
    int next_id = 0;
    std::vector<Completion> done;
    explicit Run(std::uint64_t seed) : rng(seed) {}

    Time duration() {
      return rng.bernoulli(0.2)
                 ? 0
                 : static_cast<Time>(rng.next_below(3000) + 1) * 1000;
    }
    void complete(int id, bool chain) {
      done.push_back({id, sim.now()});
      if (chain) post_job();
    }
    // Draws the job's shape before posting it, so both servers consume
    // the generator identically as long as they run jobs in one order.
    void post_job() {
      const int id = next_id++;
      const Time d = duration();
      const bool chain = rng.bernoulli(0.25);
      if (rng.bernoulli(0.5)) {
        server.post(d, [this, id, chain] { complete(id, chain); });
        return;
      }
      [](Run* run, Time d, int id, bool chain) -> Coro {
        co_await run->server.use(d);
        run->complete(id, chain);
      }(this, d, id, chain);
    }
  } run(seed);

  constexpr int kBursts = 40;
  Time t = 0;
  for (int b = 0; b < kBursts; ++b) {
    // Idle gaps: some bursts start long after the backlog has drained.
    t += static_cast<Time>(run.rng.next_below(b % 4 == 0 ? 400 : 20)) *
         units::us(1);
    const int jobs = static_cast<int>(run.rng.next_below(6)) + 1;
    run.sim.at(t, [&run, jobs] {
      for (int i = 0; i < jobs; ++i) run.post_job();
    });
  }
  run.sim.run();
  return std::move(run.done);
}

TEST(Resource, MatchesQueuedReferenceOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Completion> want = drive<test_util::QueuedServer>(seed);
    const std::vector<Completion> got = drive<Resource>(seed);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(got, want);
    // FIFO: jobs complete in the order they were posted.
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i].id, static_cast<int>(i));
  }
}

}  // namespace
}  // namespace apn::sim
