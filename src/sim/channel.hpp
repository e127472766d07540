// Channel: a unidirectional, rate-limited pipe with per-chunk overhead and
// propagation latency. One Channel models one direction of a physical link
// (PCIe lane bundle, torus cable, IB port).
//
// Timing model per send of N bytes, queued at time `now`:
//   serialization = per_send_overhead + N / bytes_per_sec   (FIFO, exclusive)
//   done          = max(now, busy_until) + serialization
//   delivery      = done + latency                          (pipelined)
// Multiple in-flight sends pipeline: the wire serializes them back-to-back
// while earlier ones are still propagating.
//
// Every send's duration is known when it is queued, so the wire is a
// closed-form Resource (resource.hpp): the Channel reserves it for each
// send and schedules the delivery straight away, one event per send. A
// send with a `serialized` hook costs two: the hook at `done`, then the
// delivery. transfer() schedules its coroutine's resume directly and
// constructs no callable. A Channel may be moved while no hooked send is
// pending (the hook's event refers back to it), which lets topologies hold
// channels by value.
//
// The same closed form serves a FIFO server whose fixed latency L comes
// *before* its serializer (a request mailbox, a DRAM access): finishing at
// max(t + L, prev) + ser is max(t, prev - L) + ser + L, i.e. a Channel
// with latency L. Such servers send on a Channel and cost one event per
// job instead of a latency event plus a server job.
//
// reserve(start, bytes) claims the wire for a send that will be queued at
// `start` >= now and schedules nothing. A caller that knows when a send
// will be queued (the fabric, for a hop fed by one other channel only)
// reserves it early and schedules only the delivery; the times match a
// send made at `start` as long as reservations arrive in queueing order.
#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>

#include "common/fn.hpp"
#include "common/units.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace apn::sim {

struct ChannelParams {
  Rate rate = units::GBps(1);  ///< payload serialization rate
  Time per_send_overhead = 0;  ///< framing/TLP/DLLP overhead per send
  Time latency = 0;            ///< propagation + pipeline latency
};

class Channel {
 public:
  Channel(Simulator& sim, ChannelParams params)
      : sim_(&sim),
        params_(params),
        wire_(sim),
        memo_ser_(serialization_time(Bytes(0))) {}

  const ChannelParams& params() const { return params_; }

  /// Serialization time for a send of `bytes` (excludes latency/queueing).
  Time serialization_time(Bytes bytes) const {
    return params_.per_send_overhead +
           units::transfer_time(bytes, params_.rate);
  }

  /// Queue `bytes` for transmission; `delivered` fires at arrival time.
  /// `serialized` (optional) fires when the payload has fully left the
  /// sender — the point at which sender-side buffer space is reclaimable.
  /// A send without a hook hands `delivered` to the event engine as it
  /// is, so a small one stays in the event node's inline storage. With a
  /// hook, the event at `done` runs it and only then schedules the
  /// delivery: scheduling both up front reorders same-tick deliveries and
  /// moves bench_ext_hsg2d's 2-D rows.
  template <typename D, typename S = UniqueFn<void()>>
  void send(Bytes bytes, D delivered, S serialized = {}) {
    const Time done = reserve(sim_->now(), bytes);
    // S may be a UniqueFn-like type passed empty when the caller has no
    // serialized hook; plain lambdas are always truthy-equivalent.
    const bool has_serialized = [&] {
      if constexpr (requires { static_cast<bool>(serialized); })
        return static_cast<bool>(serialized);
      else
        return true;
    }();
    if (!has_serialized) {
      sim_->at(done + params_.latency, std::move(delivered));
      return;
    }
    sim_->at(done, [this, delivered = std::move(delivered),
                    serialized = std::move(serialized)]() mutable {
      serialized();
      sim_->after(params_.latency, std::move(delivered));
    });
  }

  /// Awaitable form: resumes when the payload has been *delivered*.
  auto transfer(Bytes bytes) {
    struct [[nodiscard]] Awaiter {
      Channel& ch;
      Bytes n;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        ch.sim_->resume_at(ch.reserve(ch.sim_->now(), n) + ch.params_.latency,
                           h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, bytes};
  }

  Bytes bytes_sent() const { return bytes_sent_; }
  /// Fraction of [0, now] the wire was (or is committed to be) busy.
  double utilization() const { return wire_.utilization(); }

  /// Claim the wire for a send of `bytes` queued at `start` (>= now) and
  /// schedule nothing; returns the time its last byte leaves the sender.
  /// Reservations must be made in the order their sends are queued;
  /// utilization() counts a reservation from when it is made.
  Time reserve(Time start, Bytes bytes) {
    // Senders mostly repeat one size, so the last size's time is kept.
    if (bytes != memo_bytes_) {
      memo_bytes_ = bytes;
      memo_ser_ = serialization_time(bytes);
    }
    bytes_sent_ += bytes;
    return wire_.reserve(start, memo_ser_);
  }

 private:
  Simulator* sim_;
  ChannelParams params_;
  Resource wire_;  ///< the serializer: one job per send
  Bytes bytes_sent_;
  Bytes memo_bytes_;  ///< size of the last send; its time is memo_ser_
  Time memo_ser_;
};

}  // namespace apn::sim
