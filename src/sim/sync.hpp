// Synchronization primitives for simulation processes:
//   Gate       — one-shot broadcast event (open() wakes all waiters)
//   Future<T>  — one-shot event carrying a value (shared handle)
//   CreditPool — weighted (byte-granularity) semaphore for flow control;
//                acquires of 1 make it a counting semaphore
//   Queue<T>   — unbounded async message queue
//
// All four park coroutines on the shared intrusive WaiterList (waiter.hpp):
// the waiter node is embedded in the awaiter inside the coroutine frame, so
// suspending costs no allocation, and every wakeup goes through
// Simulator::schedule_resume — the same-tick ready ring — never the heap.
// Wakeups are always scheduled, never resumed inline, so process
// interleaving is deterministic and stack depth stays bounded.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/coro.hpp"
#include "sim/simulator.hpp"
#include "sim/waiter.hpp"

namespace apn::sim {

/// One-shot broadcast event. Waiting on an already-open gate does not
/// suspend. open() is idempotent.
class Gate {
 public:
  explicit Gate(Simulator& sim) : sim_(&sim) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  bool is_open() const { return open_; }

  void open() {
    if (open_) return;
    open_ = true;
    while (!waiters_.empty()) sim_->schedule_resume(waiters_.pop()->handle);
  }

  auto wait() {
    struct [[nodiscard]] Awaiter : Waiter {
      Gate& gate;
      explicit Awaiter(Gate& g) : gate(g) {}
      bool await_ready() const noexcept { return gate.open_; }
      void await_suspend(std::coroutine_handle<> h) {
        handle = h;
        gate.waiters_.push(this);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulator* sim_;
  bool open_ = false;
  WaiterList<> waiters_;
};

/// One-shot event carrying a value. Copyable shared handle: producer calls
/// set(), any number of consumers co_await it (each receives a copy).
template <typename T>
class Future {
 public:
  explicit Future(Simulator& sim) : state_(std::make_shared<State>(sim)) {}

  bool ready() const { return state_->value.has_value(); }

  void set(T value) {
    State& st = *state_;
    if (st.value.has_value()) return;  // one-shot
    st.value = std::move(value);
    while (!st.waiters.empty()) st.sim->schedule_resume(st.waiters.pop()->handle);
  }

  /// Value access once ready.
  const T& get() const { return *state_->value; }

  auto operator co_await() {
    struct [[nodiscard]] Awaiter : Waiter {
      std::shared_ptr<State> st;
      explicit Awaiter(std::shared_ptr<State> s) : st(std::move(s)) {}
      bool await_ready() const noexcept { return st->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        handle = h;
        st->waiters.push(this);
      }
      T await_resume() const { return *st->value; }
    };
    return Awaiter{state_};
  }

 private:
  struct State {
    explicit State(Simulator& s) : sim(&s) {}
    Simulator* sim;
    std::optional<T> value;
    WaiterList<> waiters;
  };
  std::shared_ptr<State> state_;
};

/// Weighted semaphore with FIFO ordering — models byte-granularity buffer
/// space (e.g. the APEnet+ 32 KB TX FIFO). acquire(n) suspends until n units
/// are free; head-of-line blocking is intentional (a FIFO cannot be
/// overtaken by smaller packets).
class CreditPool {
 public:
  CreditPool(Simulator& sim, std::int64_t capacity)
      : sim_(&sim), capacity_(capacity), available_(capacity) {}
  CreditPool(const CreditPool&) = delete;
  CreditPool& operator=(const CreditPool&) = delete;

  std::int64_t capacity() const { return capacity_; }
  std::int64_t available() const { return available_; }
  std::int64_t in_use() const { return capacity_ - available_; }

  /// Reserve `n` units, suspending until they are free. For a bounded pool
  /// (capacity > 0), throws std::invalid_argument when the request can
  /// never be satisfied (n < 0 or n > capacity()) — previously such a
  /// request parked the caller forever and, being head-of-line, deadlocked
  /// the whole pool. A pool built with capacity 0 is a pure counting
  /// pool (e.g. an arrived-bytes counter fed by release()); any
  /// non-negative request is legal there.
  auto acquire(std::int64_t n) {
    if (n < 0 || (capacity_ > 0 && n > capacity_))
      throw std::invalid_argument(
          "CreditPool::acquire: request of " + std::to_string(n) +
          " units can never be satisfied (capacity " +
          std::to_string(capacity_) + ")");
    struct [[nodiscard]] Awaiter : CreditWaiter {
      CreditPool& pool;
      Awaiter(CreditPool& p, std::int64_t n) : pool(p) { need = n; }
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        if (pool.waiters_.empty() && pool.available_ >= need) {
          pool.available_ -= need;
          return false;
        }
        handle = h;
        pool.waiters_.push(this);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, n};
  }

  void release(std::int64_t n) {
    available_ += n;
    while (!waiters_.empty() && waiters_.front()->need <= available_) {
      CreditWaiter* w = waiters_.pop();
      available_ -= w->need;
      sim_->schedule_resume(w->handle);
    }
  }

 private:
  struct CreditWaiter : Waiter {
    std::int64_t need = 0;
  };
  Simulator* sim_;
  std::int64_t capacity_;
  std::int64_t available_;
  WaiterList<CreditWaiter> waiters_;
};

/// Unbounded async FIFO queue. pop() suspends while empty; push() never
/// suspends. Items pushed while waiters are suspended are delivered
/// directly into the waiter's frame (never re-enqueued), so a concurrent
/// pop() at the same tick cannot steal a woken waiter's item.
///
/// Invariant: waiters_ non-empty implies items_ empty.
template <typename T>
class Queue {
 public:
  explicit Queue(Simulator& sim) : sim_(&sim) {}
  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  void push(T item) {
    if (!waiters_.empty()) {
      QueueWaiter* w = waiters_.pop();
      *w->slot = std::move(item);
      sim_->schedule_resume(w->handle);
      return;
    }
    items_.push_back(std::move(item));
  }

  auto pop() {
    struct [[nodiscard]] Awaiter : QueueWaiter {
      Queue& q;
      std::optional<T> item;
      explicit Awaiter(Queue& queue) : q(queue) {}
      bool await_ready() {
        if (!q.items_.empty()) {
          item = std::move(q.items_.front());
          q.items_.pop_front();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        this->handle = h;
        this->slot = &item;
        q.waiters_.push(this);
      }
      T await_resume() { return std::move(*item); }
    };
    return Awaiter{*this};
  }

 private:
  struct QueueWaiter : Waiter {
    std::optional<T>* slot = nullptr;
  };
  Simulator* sim_;
  std::deque<T> items_;
  WaiterList<QueueWaiter> waiters_;
};

}  // namespace apn::sim
