// Resource: an exclusive serialized server with a FIFO queue.
//
// Models anything that processes one job at a time for a known duration:
// the APEnet+ Nios II micro-controller, GPU DMA copy engines, the kernel
// driver's descriptor push path. Jobs can be posted with a completion
// callback or awaited from a coroutine. Utilization accounting is built in
// so benches can report how busy a bottleneck device was.
//
// Coroutine clients take typed paths that construct no callable wrapper:
//  * post(duration, h) / use(duration): resume `h` inside the completion
//    event — the typed equivalent of post(duration, [h]{ h.resume(); }).
//  * post_resume(duration, h, extra): *schedule* the resume `extra` after
//    completion (a fresh event even when extra == 0) — the typed
//    equivalent of posting a callback that calls after(extra, resume).
// The distinction matters for determinism: an inline resume runs before
// the server starts its next job; a scheduled one runs as its own event.
//
// Queued jobs live in a grow-only power-of-two ring, so once the queue has
// reached its peak length, posting and serving allocate nothing.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/fn.hpp"
#include "sim/simulator.hpp"

namespace apn::sim {

class Resource {
 public:
  explicit Resource(Simulator& sim) : sim_(&sim) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  ~Resource() {
    // Reclaim coroutine frames still waiting on (or being served by) this
    // resource: they can never resume once the server is gone, and each
    // suspended frame is reachable from exactly one wait structure, so
    // destroying them here cannot double-free (see docs/CORRECTNESS.md,
    // "Coroutine lifetime discipline").
    if (inflight_h_) inflight_h_.destroy();
    for (std::size_t i = 0; i < count_; ++i)
      if (std::coroutine_handle<> h = ring_[slot(i)].h) h.destroy();
  }

  /// Enqueue a job taking `duration`; `done` fires when the job completes.
  void post(Time duration, UniqueFn<void()> done = {}) {
    enqueue(duration, std::move(done), {}, kInlineResume);
  }

  /// Typed fast path: resume `h` inside the job's completion event.
  void post(Time duration, std::coroutine_handle<> h) {
    enqueue(duration, {}, h, kInlineResume);
  }

  /// Typed fast path: when the job completes, schedule `h` to resume
  /// `extra_delay` later (e.g. wire latency pipelined behind the
  /// serialization stage). The resume is always a separate event, even
  /// when extra_delay is zero.
  void post_resume(Time duration, std::coroutine_handle<> h,
                   Time extra_delay) {
    enqueue(duration, {}, h, extra_delay);
  }

  /// Awaitable form: suspends until the job has been serviced.
  auto use(Time duration) {
    struct [[nodiscard]] Awaiter {
      Resource& res;
      Time dur;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { res.post(dur, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, duration};
  }

  bool busy() const { return busy_; }
  std::size_t queue_length() const { return count_; }
  Time busy_time() const { return busy_time_; }
  std::uint64_t jobs_completed() const { return jobs_completed_; }

  /// Fraction of [0, now] the server was busy.
  double utilization() const {
    Time now = sim_->now();
    return now > 0 ? static_cast<double>(busy_time_) /
                         static_cast<double>(now)
                   : 0.0;
  }

  void reset_stats() {
    busy_time_ = 0;
    jobs_completed_ = 0;
  }

 private:
  static constexpr Time kInlineResume = -1;
  static constexpr std::size_t kMinRing = 8;

  struct Job {
    Time duration = 0;
    UniqueFn<void()> done;       // callback completion (may be empty)
    std::coroutine_handle<> h;   // typed completion (may be null)
    // kInlineResume = resume inside the completion event.
    Time resume_extra_delay = kInlineResume;
  };

  /// Ring index of the i-th queued job (0 = front).
  std::size_t slot(std::size_t i) const {
    return (head_ + i) & (ring_.size() - 1);
  }

  void enqueue(Time duration, UniqueFn<void()> done,
               std::coroutine_handle<> h, Time extra_delay) {
    if (count_ == ring_.size()) grow();
    Job& job = ring_[slot(count_)];
    job.duration = duration;
    job.done = std::move(done);
    job.h = h;
    job.resume_extra_delay = extra_delay;
    ++count_;
    if (!busy_) start_next();
  }

  /// Double the ring (first use: kMinRing slots), unwrapping the queued
  /// jobs to the front in FIFO order.
  void grow() {
    std::vector<Job> bigger(ring_.empty() ? kMinRing : 2 * ring_.size());
    for (std::size_t i = 0; i < count_; ++i)
      bigger[i] = std::move(ring_[slot(i)]);
    ring_ = std::move(bigger);
    head_ = 0;
  }

  void start_next() {
    if (count_ == 0) return;
    busy_ = true;
    // The front slot is vacated by moving its callback out; nothing can
    // enqueue between here and the schedule below.
    Job& job = ring_[head_];
    head_ = slot(1);
    --count_;
    busy_time_ += job.duration;
    if (job.h) {
      const auto h = job.h;
      const Time extra = job.resume_extra_delay;
      inflight_h_ = h;
      sim_->after(job.duration, [this, h, extra] {
        ++jobs_completed_;
        inflight_h_ = {};
        if (extra == kInlineResume)
          h.resume();
        else
          sim_->resume_after(extra, h);
        if (count_ != 0) {
          start_next();
        } else {
          busy_ = false;
        }
      });
      return;
    }
    sim_->after(job.duration, [this, done = std::move(job.done)]() mutable {
      ++jobs_completed_;
      if (done) done();
      if (count_ != 0) {
        start_next();
      } else {
        busy_ = false;
      }
    });
  }

  Simulator* sim_;
  /// Frame of the typed job currently being served; its resume handle is
  /// captured in a pending completion event whose drop path cannot reach
  /// it, so the destructor reclaims it from here if the completion never
  /// fires (teardown before drain).
  std::coroutine_handle<> inflight_h_{};
  bool busy_ = false;
  Time busy_time_ = 0;
  std::uint64_t jobs_completed_ = 0;
  /// FIFO of queued jobs: count_ of them from ring_[head_], wrapping.
  /// Empty until the first post; the size is zero or a power of two.
  std::vector<Job> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace apn::sim
