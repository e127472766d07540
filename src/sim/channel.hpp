// Channel: a unidirectional, rate-limited pipe with per-chunk overhead and
// propagation latency. One Channel models one direction of a physical link
// (PCIe lane bundle, torus cable, IB port).
//
// Timing model per send of N bytes:
//   serialization = per_send_overhead + N / bytes_per_sec   (FIFO, exclusive)
//   delivery      = serialization completion + latency      (pipelined)
// Multiple in-flight sends pipeline: the wire serializes them back-to-back
// while earlier ones are still propagating.
//
// send() is templated over the callback types so lambdas flow into the
// event engine's inline storage without being boxed behind a type-erased
// wrapper; transfer() takes the fully typed path (Resource::post_resume)
// and constructs no callable at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
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
      : sim_(&sim), params_(params), line_(sim) {}

  const ChannelParams& params() const { return params_; }

  /// A `delivered` callable of at most this size makes a send without a
  /// `serialized` hook allocation-free: the job wrapper adds one pointer
  /// and still fits UniqueFn's small buffer.
  static constexpr std::size_t kInlineDeliveredBytes = 40;

  /// Serialization time for a send of `bytes` (excludes latency/queueing).
  Time serialization_time(Bytes bytes) const {
    return params_.per_send_overhead +
           units::transfer_time(bytes, params_.rate);
  }

  /// Queue `bytes` for transmission; `delivered` fires at arrival time.
  /// `serialized` (optional) fires when the payload has fully left the
  /// sender — the point at which sender-side buffer space is reclaimable.
  template <typename D, typename S = UniqueFn<void()>>
  void send(Bytes bytes, D delivered, S serialized = {}) {
    bytes_sent_ += bytes;
    // S may be a UniqueFn-like type passed empty when the caller has no
    // serialized hook; plain lambdas are always truthy-equivalent and
    // called unconditionally. The no-hook wrapper captures only
    // {this, delivered}, so a `delivered` of up to kInlineDeliveredBytes
    // stays inline in the Resource job and then in the latency event.
    const bool has_serialized = [&] {
      if constexpr (requires { static_cast<bool>(serialized); })
        return static_cast<bool>(serialized);
      else
        return true;
    }();
    if (!has_serialized) {
      auto forward = [this, delivered = std::move(delivered)]() mutable {
        sim_->after(params_.latency, std::move(delivered));
      };
      static_assert(sizeof(D) > kInlineDeliveredBytes ||
                        UniqueFn<void()>::stores_inline<decltype(forward)>(),
                    "a small `delivered` must keep the Resource job inline");
      line_.post(serialization_time(bytes), std::move(forward));
      return;
    }
    line_.post(serialization_time(bytes),
               [this, delivered = std::move(delivered),
                serialized = std::move(serialized)]() mutable {
                 if constexpr (requires { static_cast<bool>(serialized); }) {
                   if (serialized) serialized();
                 } else {
                   serialized();
                 }
                 sim_->after(params_.latency, std::move(delivered));
               });
  }

  /// Awaitable form: resumes when the payload has been *delivered*.
  auto transfer(Bytes bytes) {
    struct Awaiter {
      Channel& ch;
      Bytes n;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        ch.bytes_sent_ += n;
        ch.line_.post_resume(ch.serialization_time(n), h,
                             ch.params_.latency);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, bytes};
  }

  Bytes bytes_sent() const { return bytes_sent_; }
  double utilization() const { return line_.utilization(); }
  bool busy() const { return line_.busy(); }
  std::size_t queue_length() const { return line_.queue_length(); }

 private:
  Simulator* sim_;
  ChannelParams params_;
  Resource line_;
  Bytes bytes_sent_;
};

}  // namespace apn::sim
