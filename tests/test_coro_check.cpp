// Tests for the coroutine frame-lifetime oracle (src/check/coro_check.hpp)
// and the teardown-reclamation contract it depends on: every structure a
// frame can be suspended on (WaiterList-based sync primitives, Resource
// queues, pending Simulator resume nodes) destroys the frame when it is
// itself destroyed, so "still registered" at the end of a run means
// "genuinely leaked".
//
// The registry is process-global, so every assertion works on deltas of
// the counters, and each test that enables tracking disables it again.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/coro_check.hpp"
#include "sim/coro.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace apn {
namespace {

namespace coro = check::coro;

/// RAII enable/disable around a test body.
struct TrackingGuard {
  TrackingGuard() { coro::force_enable(true); }
  ~TrackingGuard() { coro::force_enable(false); }
};

struct Counters {
  std::uint64_t created;
  std::uint64_t destroyed;
  std::uint64_t poisoned;
  std::size_t live;

  static Counters now() {
    return Counters{coro::created_count(), coro::destroyed_count(),
                    coro::poisoned_count(), coro::live_count()};
  }
};

sim::Coro finish_immediately(int* ran) {
  *ran += 1;
  co_return;
}

sim::Coro wait_on_gate(sim::Gate* gate, int* resumed) {
  co_await gate->wait();
  *resumed += 1;
}

TEST(CoroCheck, CompletedFramesAreUnregistered) {
  TrackingGuard on;
  const Counters before = Counters::now();
  int ran = 0;
  finish_immediately(&ran);
  EXPECT_EQ(ran, 1);
  const Counters after = Counters::now();
  EXPECT_EQ(after.created - before.created, 1u);
  EXPECT_EQ(after.destroyed - before.destroyed, 1u);
  EXPECT_EQ(after.live, before.live);
}

TEST(CoroCheck, SuspendedForeverFrameIsReportedWithProvenance) {
  TrackingGuard on;
  const Counters before = Counters::now();
  sim::Simulator sim;
  auto gate = std::make_unique<sim::Gate>(sim);
  int resumed = 0;
  wait_on_gate(gate.get(), &resumed);
  EXPECT_EQ(resumed, 0);

  const Counters live = Counters::now();
  EXPECT_EQ(live.created - before.created, 1u);
  EXPECT_EQ(live.live - before.live, 1u);

  // The snapshot names the coroutine function and this file.
  const std::vector<coro::FrameInfo> frames = coro::snapshot();
  ASSERT_FALSE(frames.empty());
  const coro::FrameInfo& f = frames.back();
  ASSERT_NE(f.function, nullptr);
  EXPECT_NE(std::string(f.function).find("wait_on_gate"), std::string::npos);
  ASSERT_NE(f.file, nullptr);
  EXPECT_NE(std::string(f.file).find("test_coro_check.cpp"),
            std::string::npos);
  EXPECT_GT(f.bytes, 0u);

  // The textual report carries the same provenance.
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  coro::report(tmp);
  std::rewind(tmp);
  std::string text;
  char buf[256];
  while (std::fgets(buf, sizeof buf, tmp) != nullptr) text += buf;
  std::fclose(tmp);
  EXPECT_NE(text.find("wait_on_gate"), std::string::npos);
  EXPECT_NE(text.find("live coroutine frame"), std::string::npos);

  // Destroying the gate reclaims the parked frame (WaiterList teardown):
  // nothing resumes, the frame just dies.
  gate.reset();
  EXPECT_EQ(resumed, 0);
  const Counters after = Counters::now();
  EXPECT_EQ(after.live, before.live);
  EXPECT_EQ(after.destroyed - before.destroyed, 1u);
}

TEST(CoroCheck, BirthTickRecordsSimulatedTime) {
  TrackingGuard on;
  sim::Simulator sim;
  sim::Gate gate(sim);
  int resumed = 0;
  // Spawn the waiter from inside an event at t=500: its frame's birth tick
  // must be the simulated time, not wall clock or zero.
  sim.at(500, [&] { wait_on_gate(&gate, &resumed); });
  sim.run();
  const std::vector<coro::FrameInfo> frames = coro::snapshot();
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().birth_tick, 500);
  gate.open();  // nothing left to resume it deterministically; reclaim:
  sim.run();
  EXPECT_EQ(resumed, 1);
}

TEST(CoroCheck, QueueTeardownReclaimsParkedConsumer) {
  TrackingGuard on;
  const Counters before = Counters::now();
  {
    sim::Simulator sim;
    sim::Queue<int> q(sim);
    [](sim::Queue<int>* q) -> sim::Coro { co_await q->pop(); }(&q);
    EXPECT_EQ(Counters::now().live - before.live, 1u);
  }
  EXPECT_EQ(Counters::now().live, before.live);
}

TEST(CoroCheck, CreditPoolTeardownReclaimsParkedWaiter) {
  TrackingGuard on;
  const Counters before = Counters::now();
  {
    sim::Simulator sim;
    sim::CreditPool pool(sim, 0);  // a counting pool with nothing in it
    [](sim::CreditPool* p) -> sim::Coro { co_await p->acquire(1); }(&pool);
    EXPECT_EQ(Counters::now().live - before.live, 1u);
  }
  EXPECT_EQ(Counters::now().live, before.live);
}

TEST(CoroCheck, ResourceTeardownReclaimsQueuedAndInflightJobs) {
  TrackingGuard on;
  const Counters before = Counters::now();
  {
    sim::Simulator sim;
    sim::Resource server(sim);
    // Two jobs: one in service, one queued behind it. Each frame waits on
    // its completion event in the Simulator, which never fires.
    [](sim::Resource* r) -> sim::Coro { co_await r->use(100); }(&server);
    [](sim::Resource* r) -> sim::Coro { co_await r->use(100); }(&server);
    EXPECT_EQ(Counters::now().live - before.live, 2u);
  }
  EXPECT_EQ(Counters::now().live, before.live);
}

TEST(CoroCheck, SimulatorTeardownReclaimsPendingResumes) {
  TrackingGuard on;
  const Counters before = Counters::now();
  {
    sim::Simulator sim;
    // One resume in each store: epoch heap, epoch bucket, far heap and
    // same-tick ready ring. Every pending-node path reclaims.
    [](sim::Simulator* s) -> sim::Coro { co_await sim::delay(*s, 10); }(&sim);
    [](sim::Simulator* s) -> sim::Coro {
      co_await sim::delay(*s, 3 * sim::Simulator::kEpochSpan);
    }(&sim);
    [](sim::Simulator* s) -> sim::Coro {
      co_await sim::delay(*s, 2 * sim::Simulator::kHorizon);
    }(&sim);
    [](sim::Simulator* s) -> sim::Coro { co_await sim::yield(*s); }(&sim);
    EXPECT_EQ(Counters::now().live - before.live, 4u);
  }
  EXPECT_EQ(Counters::now().live, before.live);
}

TEST(CoroCheck, PoisonPatternFillsFreedFrames) {
  // The pattern itself is a contract (debuggers key off 0xC9).
  unsigned char buf[64];
  std::memset(buf, 0, sizeof buf);
  coro::poison_fill(buf, sizeof buf);
  for (unsigned char b : buf) ASSERT_EQ(b, coro::kPoisonByte);

  // With the race detector armed, completing a frame poisons it before
  // the memory is released (observable via the counter; the bytes are
  // gone by the time we could look).
  TrackingGuard on;
  coro::mirror_check_forced(true);
  const std::uint64_t poisoned_before = coro::poisoned_count();
  int ran = 0;
  finish_immediately(&ran);
  coro::mirror_check_forced(false);
  EXPECT_EQ(coro::poisoned_count() - poisoned_before, 1u);
}

TEST(CoroCheck, DisabledModeRegistersNothing) {
  coro::force_enable(false);
  const Counters before = Counters::now();
  sim::Simulator sim;
  sim::Gate gate(sim);
  int resumed = 0;
  int ran = 0;
  finish_immediately(&ran);
  wait_on_gate(&gate, &resumed);
  const Counters after = Counters::now();
  EXPECT_EQ(after.created, before.created);
  EXPECT_EQ(after.destroyed, before.destroyed);
  EXPECT_EQ(after.live, before.live);
  gate.open();
  sim.run();
}

TEST(CoroCheck, FramesOutlivingDisableStillUnregister) {
  // A frame registered while tracking was on must be erased when it dies,
  // even if tracking was turned off in between — otherwise the registry
  // would report phantom leaks forever.
  coro::force_enable(true);
  const Counters before = Counters::now();
  sim::Simulator sim;
  auto gate = std::make_unique<sim::Gate>(sim);
  int resumed = 0;
  wait_on_gate(gate.get(), &resumed);
  coro::force_enable(false);
  gate.reset();
  EXPECT_EQ(Counters::now().live, before.live);
}

}  // namespace
}  // namespace apn
