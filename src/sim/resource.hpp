// Resource: an exclusive FIFO server, in closed form.
//
// Models anything that processes one job at a time for a known duration:
// the APEnet+ Nios II micro-controller, GPU DMA copy engines, the kernel
// driver's descriptor push path. Jobs can be posted with a completion
// callback or awaited from a coroutine. Utilization accounting is built in
// so benches can report how busy a bottleneck device was.
//
// Every job's duration is known when it is posted, so the server keeps only
// `busy_until`: a job posted at `now` ends at
//   end = max(now, busy_until) + duration
// and its completion (callback or coroutine resume) is handed to the
// Simulator for `end` straight away, one event per job. busy_time() and
// jobs_completed() count a job when it is posted, so read them once the
// run has drained. A coroutine parked in use() waits in the Simulator's
// queues, whose teardown reclaims it.
//
// Channel (channel.hpp) serializes on a Resource through reserve(), so
// this is the one place the FIFO max law is written.
//
// Ordering: a job's completion event takes its sequence number when the
// job is posted. A queued server numbered job k+1's completion only when
// job k ended, so an event that job k's completion scheduled for exactly
// job k+1's end time ran before job k+1's completion; here it runs after
// it. Completions themselves keep FIFO order.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <utility>

#include "sim/simulator.hpp"

namespace apn::sim {

class Resource {
 public:
  explicit Resource(Simulator& sim) : sim_(&sim) {}
  // A copy would fork the server's FIFO; moving it is safe, since no
  // scheduled job refers back to it.
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  Resource(Resource&&) = default;
  Resource& operator=(Resource&&) = default;

  /// Enqueue a job taking `duration`; `done` fires when the job completes.
  template <typename F>
  void post(Time duration, F&& done) {
    sim_->at(reserve(sim_->now(), duration), std::forward<F>(done));
  }

  /// A job with no completion callback. Its end is still an event, so a
  /// run that drains lasts until the job has ended.
  void post(Time duration) { post(duration, [] {}); }

  /// Awaitable form: suspends until the job has been serviced.
  auto use(Time duration) {
    struct [[nodiscard]] Awaiter {
      Resource& res;
      Time dur;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        res.sim_->resume_at(res.reserve(res.sim_->now(), dur), h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, duration};
  }

  /// Claim the server for a job of `duration` queued at `start` (>= now)
  /// and schedule nothing; returns the time the job ends. Jobs must be
  /// reserved in the order they are queued.
  Time reserve(Time start, Time duration) {
    ++jobs_completed_;
    busy_time_ += duration;
    busy_until_ = std::max(start, busy_until_) + duration;
    return busy_until_;
  }

  bool busy() const { return busy_until_ > sim_->now(); }
  Time busy_time() const { return busy_time_; }
  std::uint64_t jobs_completed() const { return jobs_completed_; }

  /// Fraction of [0, now] the server was (or is committed to be) busy.
  double utilization() const {
    const Time now = sim_->now();
    return now > 0 ? static_cast<double>(busy_time_) /
                         static_cast<double>(now)
                   : 0.0;
  }

 private:
  Simulator* sim_;
  Time busy_until_ = 0;  ///< when the last posted job ends
  Time busy_time_ = 0;
  std::uint64_t jobs_completed_ = 0;
};

}  // namespace apn::sim
