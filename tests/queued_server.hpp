// Test reference: a FIFO server that queues its jobs and chains them
// through events, the way sim::Resource worked before it became closed
// form. A job's completion event is scheduled only when the job ahead of
// it ends, so nothing here shares code with Resource's max law: the
// differential tests in test_resource.cpp and test_channel.cpp compare
// Resource and Channel against it.
#pragma once

#include <coroutine>
#include <deque>
#include <utility>

#include "common/fn.hpp"
#include "sim/simulator.hpp"

namespace apn::test_util {

class QueuedServer {
 public:
  explicit QueuedServer(sim::Simulator& sim) : sim_(&sim) {}
  QueuedServer(const QueuedServer&) = delete;
  QueuedServer& operator=(const QueuedServer&) = delete;

  /// Enqueue a job taking `duration`; `done` fires when the job completes.
  void post(Time duration, UniqueFn<void()> done) {
    enqueue(Job{duration, std::move(done), {}});
  }

  /// Awaitable form: suspends until the job has been serviced; the
  /// coroutine resumes inside the job's completion event.
  auto use(Time duration) {
    struct Awaiter {
      QueuedServer& server;
      Time dur;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        server.enqueue(Job{dur, {}, h});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, duration};
  }

 private:
  struct Job {
    Time duration = 0;
    UniqueFn<void()> done;      // callback completion (may be empty)
    std::coroutine_handle<> h;  // coroutine completion (may be null)
  };

  void enqueue(Job job) {
    queue_.push_back(std::move(job));
    if (!busy_) start_next();
  }

  void start_next() {
    busy_ = true;
    Job job = std::move(queue_.front());
    queue_.pop_front();
    sim_->after(job.duration, [this, done = std::move(job.done),
                               h = job.h]() mutable {
      if (h)
        h.resume();
      else if (done)
        done();
      if (queue_.empty())
        busy_ = false;
      else
        start_next();
    });
  }

  sim::Simulator* sim_;
  bool busy_ = false;
  std::deque<Job> queue_;
};

}  // namespace apn::test_util
