// Coroutine simulation processes.
//
// A `Coro` is a detached, eagerly-started coroutine: calling a function that
// returns Coro runs it to its first suspension point; the frame destroys
// itself when the coroutine finishes. Processes interact with the simulator
// only through awaitables (delay, Gate, CreditPool, ...), each of which
// schedules the resume as a simulator event — so a resume never nests inside
// another coroutine's stack frame and execution order is deterministic.
#pragma once

#include <coroutine>
#include <exception>
#include <source_location>

#include "check/coro_check.hpp"
#include "sim/simulator.hpp"

namespace apn::sim {

/// Detached simulation process handle. Fire-and-forget.
///
/// The promise owns the frame-lifetime oracle hooks (src/check/
/// coro_check.hpp): frame allocation registers the frame, and the
/// promise constructor's defaulted source_location argument is evaluated
/// inside the coroutine itself, so the registry records the coroutine
/// function's own file:line and name — lambdas included. When the oracle
/// is disabled (the default) each hook is one relaxed bool load.
struct Coro {
  struct promise_type {
    promise_type(
        std::source_location loc = std::source_location::current()) noexcept {
      check::coro::note_promise(loc);
    }
    Coro get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() { std::terminate(); }
    static void* operator new(std::size_t bytes) {
      return check::coro::frame_allocated(bytes);
    }
    static void operator delete(void* p, std::size_t bytes) noexcept {
      check::coro::frame_destroyed(p, bytes);
    }
  };
};

/// Awaitable that suspends the current process for `delay` picoseconds.
class [[nodiscard]] DelayAwaiter {
 public:
  DelayAwaiter(Simulator& sim, Time delay) : sim_(sim), delay_(delay) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim_.resume_after(delay_, h);
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  Time delay_;
};

/// `co_await delay(sim, us(1))` — suspend for a fixed simulated duration.
inline DelayAwaiter delay(Simulator& sim, Time d) { return {sim, d}; }

/// Yield to the event loop: equivalent to a zero-length delay, giving other
/// same-time events a chance to run first.
inline DelayAwaiter yield(Simulator& sim) { return {sim, 0}; }

}  // namespace apn::sim
