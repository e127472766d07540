#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace apn::sim {
namespace {

using units::us;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.after(us(3), [&] { order.push_back(3); });
  sim.after(us(1), [&] { order.push_back(1); });
  sim.after(us(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), us(3));
}

TEST(Simulator, SameTimeFiresInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.after(us(5), [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  Time inner_fired = -1;
  sim.after(us(1), [&] {
    sim.after(us(2), [&] { inner_fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fired, us(3));
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  Time t = -1;
  sim.after(us(7), [&] {
    sim.after(0, [&] { t = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(t, us(7));
}

TEST(Simulator, PastTimeClampsToNow) {
  Simulator sim;
  Time fired = -1;
  sim.after(us(10), [&] {
    sim.at(us(5), [&] { fired = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired, us(10));
}

TEST(Simulator, RunUntilAdvancesClockAndStops) {
  Simulator sim;
  int fired = 0;
  sim.after(us(1), [&] { ++fired; });
  sim.after(us(10), [&] { ++fired; });
  sim.run_until(us(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), us(5));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepProcessesOne) {
  Simulator sim;
  int fired = 0;
  sim.after(1, [&] { ++fired; });
  sim.after(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, NegativeDelayTreatedAsZero) {
  Simulator sim;
  Time t = -1;
  sim.after(-100, [&] { t = sim.now(); });
  sim.run();
  EXPECT_EQ(t, 0);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  Time last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    sim.after((i * 7919) % 1000, [&, i] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_processed(), 10000u);
}

TEST(Simulator, ReadyRingRunsAfterPendingSlotEvents) {
  // Events scheduled *before* the current tick began (they sit in the
  // epoch heap at `now`) run before events created at delay 0 *during*
  // the tick (they go to the same-tick ready ring). Both precede anything
  // at a later time. This is exactly the old (time, seq) order.
  Simulator sim;
  std::vector<int> order;
  sim.after(us(1), [&] {
    order.push_back(1);
    sim.after(0, [&] { order.push_back(3); });  // ready ring
    sim.after(us(1), [&] { order.push_back(4); });
  });
  sim.after(us(1), [&] { order.push_back(2); });  // same tick, later seq
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, ReadyRingIsFifoUnderNesting) {
  // Zero-delay events spawned from zero-delay events keep FIFO order and
  // never advance the clock.
  Simulator sim;
  std::vector<int> order;
  sim.after(0, [&] {
    order.push_back(1);
    sim.after(0, [&] { order.push_back(3); });
  });
  sim.after(0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 0);
}

constexpr Time kEpoch = Simulator::kEpochSpan;
constexpr Time kHorizon = Simulator::kHorizon;

TEST(Simulator, WheelToHeapBoundarySpansKeepOrder) {
  // Exercise delays straddling each store's edge: last tick of the first
  // epoch (epoch heap), first tick of the next (a bucket), mid-window (a
  // bucket), and beyond the window (far heap), including events
  // scheduled for the same tick from different epochs. Order must be
  // strictly (time, seq).
  Simulator sim;
  std::vector<Time> fired;
  const Time mid = 100000;
  const Time far = kHorizon + units::ps(5);
  const Time second = kEpoch + units::ps(7);  // a tick of the second epoch
  auto log = [&] { fired.push_back(sim.now()); };
  sim.after(far, log);         // far heap
  sim.after(mid, log);         // bucket
  sim.after(kEpoch, log);      // first tick past the open epoch
  sim.after(kEpoch - 1, log);  // last tick of the open epoch
  sim.after(3, [&] {
    log();
    // Raw engine ticks on purpose.  apn-lint: allow(unit-mix)
    sim.after(far - 3, log);  // same far tick, from the first epoch
  });
  sim.after(second, [&] {
    log();
    sim.after(mid - second, log);  // same ticks again, from the second epoch
    sim.after(far - second, log);
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{3, kEpoch - 1, kEpoch, second, mid,
                                      mid, far, far, far}));
  EXPECT_EQ(sim.events_processed(), 9u);
}

TEST(Simulator, PendingAndEmptyTrackAllThreeStores) {
  Simulator sim;
  EXPECT_TRUE(sim.empty());
  sim.after(0, [] {});             // ready ring
  sim.after(10, [] {});            // epoch heap
  sim.after(3 * kEpoch, [] {});    // bucket
  sim.after(2 * kHorizon, [] {});  // far heap
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunUntilDoesNotRunFutureRingOrWheelEvents) {
  Simulator sim;
  int ran = 0;
  sim.after(us(2), [&] {
    ++ran;
    sim.after(0, [&] { ++ran; });  // same tick: must run within run_until
  });
  sim.after(us(5), [&] { ++ran; });
  sim.run_until(us(3));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), us(3));
  sim.run();
  EXPECT_EQ(ran, 3);
}

TEST(Simulator, MoveOnlyAndOversizedCallablesFire) {
  // Move-only payloads ride the inline path; payloads larger than the
  // node's inline storage take the boxed path. Both must fire exactly
  // once and destroy cleanly.
  Simulator sim;
  auto big = std::make_unique<int>(7);
  int got = 0;
  sim.after(1, [p = std::move(big), &got] { got = *p; });
  struct Fat {
    long long pad[14] = {};  // > inline storage
    int* out;
  };
  Fat fat;
  int fat_got = 0;
  fat.out = &fat_got;
  sim.after(2, [fat] { *fat.out = 42; });
  sim.run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(fat_got, 42);
}

TEST(Simulator, DestructorReclaimsUnfiredEvents) {
  // Unfired events in ring, both heaps and buckets are dropped
  // (payload dtors run) when the Simulator dies — ASan/LSan guards this.
  auto token = std::make_shared<int>(1);
  {
    Simulator sim;
    sim.after(0, [token] {});
    sim.after(100, [token] {});
    sim.after(3 * kEpoch, [token] {});
    sim.after(3 * kEpoch + 1, [token] {});
    sim.after(2 * kHorizon, [token] {});
    EXPECT_EQ(token.use_count(), 6);
  }
  EXPECT_EQ(token.use_count(), 1);
}


// ---- differential test against a reference (time, seq) queue -----------

/// The reference: one ordered map keyed by (time, seq), with the
/// Simulator's clamp-to-now and run_until semantics.
class RefQueue {
 public:
  Time now() const { return now_; }
  std::size_t pending() const { return q_.size(); }
  void at(Time t, std::function<void()> fn) {
    q_.emplace(std::pair{std::max(t, now_), seq_++}, std::move(fn));
  }
  void run_until(Time t) {
    while (!q_.empty() && q_.begin()->first.first <= t) fire_first();
    now_ = std::max(now_, t);
  }
  void run() {
    while (!q_.empty()) fire_first();
  }

 private:
  void fire_first() {
    auto node = q_.extract(q_.begin());
    now_ = node.key().first;
    node.mapped()();
  }

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::map<std::pair<Time, std::uint64_t>, std::function<void()>> q_;
};

/// A delay from `now` drawn to land on the engine's edges: same tick,
/// inside one epoch, either side of an epoch edge, on a coarse grid of
/// shared ticks, at the bucket window's edge and beyond it.
Time pick_delay(Rng& rng, Time now) {
  const Time jitter = static_cast<Time>(rng.next_below(3)) - 1;
  const Time epoch_left = kEpoch - now % kEpoch;
  Time d = 0;
  switch (rng.next_below(7)) {
    case 0: d = 0; break;
    case 1: d = 1 + static_cast<Time>(rng.next_below(kEpoch - 1)); break;
    case 2:
      d = epoch_left + static_cast<Time>(rng.next_below(4)) * kEpoch + jitter;
      break;
    case 3: {
      const Time grid = kEpoch / 4;
      d = (now / grid + 1 + static_cast<Time>(rng.next_below(8))) * grid - now;
      break;
    }
    case 4: d = 1 + static_cast<Time>(rng.next_below(kHorizon)); break;
    case 5: d = kHorizon - kEpoch + epoch_left + jitter; break;
    default:
      d = kHorizon + static_cast<Time>(rng.next_below(4 * kHorizon));
      break;
  }
  return std::max<Time>(d, 0);
}

/// A strictly-future delay that stays inside the epoch `now` is in, or
/// -1 at an epoch's last tick.
Time pick_in_epoch(Rng& rng, Time now) {
  const Time epoch_left = kEpoch - now % kEpoch;
  if (epoch_left == 1) return -1;
  return 1 + static_cast<Time>(rng.next_below(epoch_left - 1));
}

/// kDense keeps hundreds of events pending and kSparse few, so the queue
/// often drains down to the far heap alone. kInEpoch is dense, and two of
/// three children an event schedules land later in its own epoch.
enum class Mode { kSparse, kDense, kInEpoch };

struct Fired {
  Time time;
  std::uint64_t id;
  bool operator==(const Fired&) const = default;
};

/// Run one seeded workload on `eng`: events spawn children at drawn
/// delays, and the control loop steps with run_until to drawn stop times,
/// scheduling more events between stops. Returns the firing log plus
/// (now, pending) after every stop.
template <typename Engine>
std::pair<std::vector<Fired>, std::vector<std::pair<Time, std::size_t>>>
run_workload(Engine& eng, std::uint64_t seed, Mode mode) {
  const bool dense = mode != Mode::kSparse;
  constexpr std::uint64_t kBudget = 20000;
  Rng rng(seed);
  std::uint64_t next_id = 0;
  std::vector<Fired> log;
  std::vector<std::pair<Time, std::size_t>> stops;
  std::function<void(std::uint64_t)> fire;
  auto schedule = [&](Time delay) {
    const std::uint64_t id = next_id++;
    eng.at(eng.now() + delay, [&fire, id] { fire(id); });
  };
  fire = [&](std::uint64_t id) {
    log.push_back(Fired{eng.now(), id});
    if (next_id >= kBudget) return;
    // Mean 1.13 children when dense, 0.93 when sparse.
    const std::uint64_t r = rng.next_below(15);
    const int kids = r < (dense ? 3u : 6u) ? 0 : r < 10 ? 1 : 2;
    for (int k = 0; k < kids; ++k) {
      const Time in_epoch = mode == Mode::kInEpoch && rng.next_below(3) < 2
                                ? pick_in_epoch(rng, eng.now())
                                : -1;
      schedule(in_epoch > 0 ? in_epoch : pick_delay(rng, eng.now()));
    }
  };
  for (int i = 0; i < (dense ? 64 : 2); ++i) schedule(pick_delay(rng, 0));
  for (int round = 0; round < 4000; ++round) {
    eng.run_until(eng.now() + pick_delay(rng, eng.now()));
    stops.emplace_back(eng.now(), eng.pending());
    if (round % 4 == 0 && next_id < kBudget)
      schedule(pick_delay(rng, eng.now()));
  }
  eng.run();
  stops.emplace_back(eng.now(), eng.pending());
  return {std::move(log), std::move(stops)};
}

TEST(Simulator, MatchesReferenceQueueAcrossEveryStoreEdge) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    const Mode mode = static_cast<Mode>(seed % 3);
    Simulator sim;
    RefQueue ref;
    const auto got = run_workload(sim, seed, mode);
    const auto want = run_workload(ref, seed, mode);
    ASSERT_EQ(got.first.size(), want.first.size());
    for (std::size_t i = 0; i < want.first.size(); ++i) {
      ASSERT_EQ(got.first[i].time, want.first[i].time) << "event " << i;
      ASSERT_EQ(got.first[i].id, want.first[i].id) << "event " << i;
    }
    EXPECT_EQ(got.second, want.second);
    EXPECT_TRUE(sim.empty());
    // The run crossed the bucket window many times over, so the circular
    // bucket index wrapped.
    EXPECT_GT(sim.now(), 20 * kHorizon);
    EXPECT_GE(want.first.size(), 10000u);
  }
}

TEST(Simulator, RunUntilStopsExactlyAtEachStoreEdge) {
  // From an empty queue at time 0, two events at tick T and one at T + 1,
  // for T on each side of each store edge (kEpoch + 5 ps sits inside a
  // bucket's epoch). A run_until one tick short of T runs nothing; one at
  // T runs exactly the two.
  for (const Time t :
       {Time{1}, kEpoch - 1, kEpoch, kEpoch + units::ps(5), 2 * kEpoch - 1,
        kHorizon - kEpoch, kHorizon - 1, kHorizon, kHorizon + 1,
        3 * kHorizon + units::ps(7)}) {
    SCOPED_TRACE(t);
    Simulator sim;
    std::vector<Time> fired;
    auto log = [&] { fired.push_back(sim.now()); };
    sim.at(t, log);
    sim.at(t + 1, log);
    sim.at(t, log);
    sim.run_until(t - 1);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(sim.now(), t - 1);
    sim.run_until(t);
    EXPECT_EQ(fired, (std::vector<Time>{t, t}));
    EXPECT_EQ(sim.pending(), 1u);
    sim.run();
    EXPECT_EQ(fired, (std::vector<Time>{t, t, t + 1}));
  }
}

}  // namespace
}  // namespace apn::sim
