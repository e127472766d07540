#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <vector>

#include "check/coro_check.hpp"
#include "common/rng.hpp"
#include "sim/channel.hpp"
#include "queued_server.hpp"
#include "sim/coro.hpp"

namespace apn::sim {
namespace {

using units::us;

TEST(Channel, SerializationPlusLatency) {
  Simulator sim;
  // 1 GB/s, 1 us overhead, 2 us latency: 1000 B => 1 + 1 + 2 = 4 us.
  Channel ch(sim, ChannelParams{Rate(1e9), us(1), us(2)});
  Time delivered = -1;
  ch.send(Bytes(1000), [&] { delivered = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered, us(4));
}

TEST(Channel, BackToBackSendsPipeline) {
  Simulator sim;
  Channel ch(sim, ChannelParams{Rate(1e9), 0, us(10)});
  std::vector<Time> arrivals;
  // Three 1000-byte sends: serialization 1 us each, so the wire frees at
  // 1, 2, 3 us; arrivals at 11, 12, 13 us (latency pipelines).
  for (int i = 0; i < 3; ++i)
    ch.send(Bytes(1000), [&] { arrivals.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], us(11));
  EXPECT_EQ(arrivals[1], us(12));
  EXPECT_EQ(arrivals[2], us(13));
}

TEST(Channel, SerializedCallbackFiresBeforeDelivery) {
  Simulator sim;
  Channel ch(sim, ChannelParams{Rate(1e9), 0, us(5)});
  Time serialized = -1, delivered = -1;
  ch.send(
      Bytes(1000), [&] { delivered = sim.now(); }, [&] { serialized = sim.now(); });
  sim.run();
  EXPECT_EQ(serialized, us(1));
  EXPECT_EQ(delivered, us(6));
}

TEST(Channel, AwaitableTransfer) {
  Simulator sim;
  Channel ch(sim, ChannelParams{Rate(2e9), 0, 0});
  Time done = -1;
  [](Simulator& sim, Channel& ch, Time& done) -> Coro {
    co_await ch.transfer(Bytes(4000));  // 2 us at 2 GB/s
    done = sim.now();
  }(sim, ch, done);
  sim.run();
  EXPECT_EQ(done, us(2));
}

TEST(Channel, ThroughputMatchesRate) {
  Simulator sim;
  Channel ch(sim, ChannelParams{units::GBps(2), 0, us(1)});
  const int n = 100;
  const Bytes bytes{65536};
  Time last = 0;
  for (int i = 0; i < n; ++i) ch.send(bytes, [&] { last = sim.now(); });
  sim.run();
  double achieved = units::bandwidth_MBps(bytes * n, last);
  EXPECT_NEAR(achieved, 2000.0, 20.0);  // latency amortizes over the burst
  EXPECT_EQ(ch.bytes_sent(), bytes * n);
}

TEST(Channel, ZeroByteSendCostsOverheadOnly) {
  Simulator sim;
  Channel ch(sim, ChannelParams{Rate(1e9), us(3), us(2)});
  Time delivered = -1;
  ch.send(Bytes(0), [&] { delivered = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered, us(5));
}

TEST(Channel, ZeroLatencyHookFiresBeforeDelivery) {
  Simulator sim;
  Channel ch(sim, ChannelParams{Rate(1e9), 0, 0});
  std::vector<int> order;
  ch.send(Bytes(0), [&] { order.push_back(2); },
          UniqueFn<void()>([&] { order.push_back(1); }));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/// The model Channel replaced: a queued FIFO server serves each send, and
/// its completion runs the hook and schedules the delivery (or the
/// transfer's resume) `latency` later, as an event of its own.
class ReferenceChannel {
 public:
  ReferenceChannel(Simulator& sim, ChannelParams params)
      : sim_(&sim), params_(params), line_(sim) {}

  void send(Bytes bytes, UniqueFn<void()> delivered,
            UniqueFn<void()> serialized = {}) {
    line_.post(serialization_time(bytes),
               [this, delivered = std::move(delivered),
                serialized = std::move(serialized)]() mutable {
                 if (serialized) serialized();
                 sim_->after(params_.latency, std::move(delivered));
               });
  }

  auto transfer(Bytes bytes) {
    struct Awaiter {
      ReferenceChannel& ch;
      Bytes n;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        ch.line_.post(ch.serialization_time(n), [&ch = ch, h] {
          ch.sim_->resume_after(ch.params_.latency, h);
        });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, bytes};
  }

 private:
  Time serialization_time(Bytes bytes) const {
    return params_.per_send_overhead +
           units::transfer_time(bytes, params_.rate);
  }

  Simulator* sim_;
  ChannelParams params_;
  test_util::QueuedServer line_;
};

/// When each operation's hook and delivery (or transfer resume) fired.
struct Fired {
  Time serialized = -1;
  Time delivered = -1;
  bool operator==(const Fired&) const = default;
};

template <typename Ch>
Coro await_transfer(Simulator& sim, Ch& ch, Bytes n, Fired* out) {
  co_await ch.transfer(n);
  out->delivered = sim.now();
}

/// Drives a channel of type Ch with a seeded random schedule of sends
/// (mixed and zero sizes, with and without a serialized hook) and
/// transfers, issued in bursts at random times, and records when each
/// operation's callbacks fired.
template <typename Ch>
std::vector<Fired> drive(std::uint64_t seed) {
  Rng rng(seed);
  const Rate rates[] = {Rate(1e9), units::GBps(2), Rate(3.7e9)};
  ChannelParams params;
  params.rate = rates[rng.next_below(3)];
  params.per_send_overhead = rng.bernoulli(0.5) ? 0 : units::ns(
      static_cast<double>(rng.next_below(50)));
  params.latency = rng.bernoulli(0.3) ? 0 : units::ns(
      static_cast<double>(rng.next_below(2000)));

  constexpr int kOps = 200;
  Simulator sim;
  Ch ch(sim, params);
  std::vector<Fired> fired(kOps);
  Time t = 0;
  for (int i = 0; i < kOps; ++i) {
    // Bursts: most operations share a tick with the previous one.
    if (rng.bernoulli(0.3))
      t += static_cast<Time>(rng.next_below(4000)) * 1000;
    const Bytes bytes(rng.bernoulli(0.2) ? 0 : rng.next_below(9000));
    Fired* f = &fired[static_cast<std::size_t>(i)];
    const std::uint64_t kind = rng.next_below(3);
    sim.at(t, [&sim, &ch, bytes, f, kind] {
      if (kind == 0) {
        ch.send(bytes, [&sim, f] { f->delivered = sim.now(); });
      } else if (kind == 1) {
        ch.send(bytes, [&sim, f] { f->delivered = sim.now(); },
                UniqueFn<void()>([&sim, f] { f->serialized = sim.now(); }));
      } else {
        await_transfer(sim, ch, bytes, f);
      }
    });
  }
  sim.run();
  return fired;
}

TEST(Channel, MatchesResourceReferenceOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Fired> want = drive<ReferenceChannel>(seed);
    const std::vector<Fired> got = drive<Channel>(seed);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("op " + std::to_string(i));
      ASSERT_GE(want[i].delivered, 0);
      EXPECT_EQ(got[i], want[i]);
    }
  }
}

TEST(Channel, PendingTransfersAreReclaimedAtTeardown) {
  namespace coro = check::coro;
  coro::force_enable(true);
  const std::size_t before = coro::live_count();
  {
    Simulator sim;
    Channel ch(sim, ChannelParams{Rate(1e9), 0, us(5)});
    Fired first, second;
    // At 1 us the first transfer is propagating, the second serializing.
    await_transfer(sim, ch, Bytes(1000), &first);
    await_transfer(sim, ch, Bytes(1000), &second);
    sim.run_until(us(1));
    EXPECT_EQ(coro::live_count() - before, 2u);
  }
  EXPECT_EQ(coro::live_count(), before);
  coro::force_enable(false);
}

}  // namespace
}  // namespace apn::sim
