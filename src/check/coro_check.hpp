// Coroutine frame-lifetime oracle — the runtime half of the suspension-
// safety work (the static half is apn-lint's coro-* rules).
//
// `sim::Coro`'s promise routes frame allocation through this registry.
// When enabled (--coro-check on a bench / bus_analyzer, APN_CORO_CHECK=1,
// or force_enable() from tests), every live frame is recorded with full
// provenance: the creation site (via the promise-constructor
// std::source_location trick — the default argument is evaluated inside
// the coroutine itself, so it names the coroutine function, lambdas
// included) and the simulated birth tick. The end-of-run report then
// names every still-suspended frame, so a leaked or stuck process
// surfaces with file:line provenance instead of as a hang or a silent
// use-after-free.
//
// Under APN_CHECK=1 (or --check) freed frames are additionally poisoned
// with kPoisonByte before the memory is released, so a resumed-after-free
// or read-through-dangling-frame bug trips on a recognizable pattern
// instead of happening to read stale-but-plausible bytes.
//
// "Zero leaked frames" is a meaningful end state because teardown
// *reclaims* parked frames: WaiterList and Simulator destroy the frames
// still suspended on them (each suspended frame is reachable from exactly
// one wait structure; a Resource or Channel parks its users in the
// Simulator's queues). Anything still registered when the
// atexit report runs is therefore a genuine leak — e.g. a Future whose
// waiter holds the only reference to the shared state it is parked on.
//
// Header-only on purpose: sim/coro.hpp must be able to call these hooks,
// and sim is an INTERFACE library below apn_check in the link order.
// Everything lives in inline variables / function-local statics.
//
// Disabled mode (the default) costs one relaxed bool load per frame
// allocation and deallocation; nothing is locked or recorded.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <source_location>
#include <unordered_map>
#include <vector>

namespace apn::check::coro {

/// Fill pattern written over freed frames under APN_CHECK=1. 0xC9 reads
/// as "C9 C9 C9 ..." in a debugger hexdump and, reinterpreted as a
/// pointer, lands in non-canonical space — dereferencing it faults.
constexpr unsigned char kPoisonByte = 0xC9;

/// One live coroutine frame, as recorded at allocation.
struct FrameInfo {
  const void* frame = nullptr;
  std::size_t bytes = 0;
  std::uint64_t seq = 0;           ///< registration order, stable for reports
  const char* file = nullptr;      ///< creation site (static storage)
  const char* function = nullptr;  ///< coroutine function name
  unsigned line = 0;
  long long birth_tick = -1;       ///< simulated time at spawn; -1 = pre-sim
};

namespace detail {

struct Registry {
  std::mutex mu;
  std::unordered_map<const void*, FrameInfo> live;
  // Checker-internal bookkeeping, not simulated state: the oracle observes
  // frame allocation from outside the event loop and must not recurse into
  // the race instrumentation it backs.
  std::uint64_t next_seq = 0;
  // apn-lint: allow(check-coverage)
  std::atomic<std::uint64_t> created{0};
  // apn-lint: allow(check-coverage)
  std::atomic<std::uint64_t> destroyed{0};
  // apn-lint: allow(check-coverage)
  std::atomic<std::uint64_t> poisoned{0};
};

inline Registry& reg() {
  static Registry r;
  return r;
}

inline std::atomic<bool> g_forced{false};
inline std::atomic<bool> g_check_forced{false};
/// Once any frame has been registered, the deallocation path must consult
/// the registry forever (frames may outlive a force_enable(false)).
inline std::atomic<bool> g_ever{false};
/// Handoff from operator new to the promise constructor (same thread, no
/// suspension in between): the frame whose source_location is pending.
inline thread_local void* g_pending = nullptr;
/// Simulated clock mirror, maintained by Simulator at tick advances.
inline thread_local long long g_tick = -1;

inline bool env_flag(const char* name) {
  const char* e = std::getenv(name);
  return e != nullptr && e[0] != '\0' && std::strcmp(e, "0") != 0;
}

inline bool check_env_on() {
  static const bool on = env_flag("APN_CHECK");
  return on;
}

}  // namespace detail

/// Expose the poison pattern writer for tests: the pattern itself is part
/// of the contract (debuggers and crash dumps key off it).
inline void poison_fill(void* p, std::size_t bytes) {
  std::memset(p, kPoisonByte, bytes);
}

inline void force_enable(bool on) {
  detail::g_forced.store(on, std::memory_order_relaxed);
}

/// Mirror of check::Session::force_enable — set by check.cpp so --check
/// arms frame poisoning without this header depending on check.hpp.
inline void mirror_check_forced(bool on) {
  detail::g_check_forced.store(on, std::memory_order_relaxed);
}

inline bool poison_enabled() {
  return detail::g_check_forced.load(std::memory_order_relaxed) ||
         detail::check_env_on();
}

/// Called by Simulator wherever the simulated clock advances, so frame
/// registration can stamp a birth tick without a sim dependency.
inline void note_tick(long long t) { detail::g_tick = t; }

inline std::size_t live_count() {
  detail::Registry& r = detail::reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.live.size();
}

inline std::uint64_t created_count() {
  return detail::reg().created.load(std::memory_order_relaxed);
}
inline std::uint64_t destroyed_count() {
  return detail::reg().destroyed.load(std::memory_order_relaxed);
}
inline std::uint64_t poisoned_count() {
  return detail::reg().poisoned.load(std::memory_order_relaxed);
}

/// All live frames in registration order.
inline std::vector<FrameInfo> snapshot() {
  detail::Registry& r = detail::reg();
  std::vector<FrameInfo> out;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    out.reserve(r.live.size());
    for (const auto& [ptr, fi] : r.live) out.push_back(fi);
  }
  std::sort(out.begin(), out.end(),
            [](const FrameInfo& a, const FrameInfo& b) {
              return a.seq < b.seq;
            });
  return out;
}

/// Print every live frame with provenance. One line per frame.
inline void report(std::FILE* out) {
  const std::vector<FrameInfo> frames = snapshot();
  std::fprintf(out, "[apn::coro-check] %zu live coroutine frame(s):\n",
               frames.size());
  for (const FrameInfo& f : frames) {
    char tick_buf[32];
    if (f.birth_tick < 0)
      std::snprintf(tick_buf, sizeof tick_buf, "pre-sim");
    else
      std::snprintf(tick_buf, sizeof tick_buf, "t=%lld", f.birth_tick);
    std::fprintf(out, "  frame #%llu: %s:%u '%s' (%zu bytes, born %s)\n",
                 static_cast<unsigned long long>(f.seq),
                 f.file != nullptr ? f.file : "?", f.line,
                 f.function != nullptr ? f.function : "?", f.bytes,
                 tick_buf);
  }
}

namespace detail {

inline void exit_report() {
  Registry& r = reg();
  std::size_t n;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    n = r.live.size();
  }
  if (n == 0) {
    std::fprintf(stderr,
                 "[apn::coro-check] leaked coroutine frames at exit: 0 "
                 "(%llu created)\n",
                 static_cast<unsigned long long>(
                     r.created.load(std::memory_order_relaxed)));
    return;
  }
  report(stderr);
  std::fprintf(stderr,
               "[apn::coro-check] leaked coroutine frames at exit: %zu\n", n);
  // Same contract as the race detector's abort mode: a diagnostic run
  // with findings fails loudly.
  std::abort();
}

}  // namespace detail

/// Arrange for the leak report to run at process exit (aborting if any
/// frame is still live). Idempotent. Used by --coro-check; tests use
/// force_enable + snapshot()/report() instead so they control teardown.
inline void install_exit_report() {
  static const bool installed = [] {
    (void)detail::reg();  // constructed first => destructed after the hook
    std::atexit(&detail::exit_report);
    return true;
  }();
  (void)installed;
}

namespace detail {

inline bool env_on() {
  static const bool on = [] {
    const bool v = env_flag("APN_CORO_CHECK");
    if (v) install_exit_report();
    return v;
  }();
  return on;
}

}  // namespace detail

inline bool enabled() {
  return detail::g_forced.load(std::memory_order_relaxed) ||
         detail::env_on();
}

/// Frame allocation hook (sim::Coro promise operator new).
inline void* frame_allocated(std::size_t bytes) {
  void* p = ::operator new(bytes);
  if (!enabled()) return p;
  detail::Registry& r = detail::reg();
  detail::g_ever.store(true, std::memory_order_relaxed);
  FrameInfo fi;
  fi.frame = p;
  fi.bytes = bytes;
  fi.birth_tick = detail::g_tick;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    fi.seq = r.next_seq++;
    r.live.emplace(p, fi);
  }
  r.created.fetch_add(1, std::memory_order_relaxed);
  detail::g_pending = p;
  return p;
}

/// Promise-constructor hook: attaches the creation site to the frame just
/// allocated on this thread (no-op when the allocation was not tracked).
inline void note_promise(std::source_location loc) {
  void* p = detail::g_pending;
  if (p == nullptr) return;
  detail::g_pending = nullptr;
  detail::Registry& r = detail::reg();
  std::lock_guard<std::mutex> lk(r.mu);
  auto it = r.live.find(p);
  if (it == r.live.end()) return;
  it->second.file = loc.file_name();
  it->second.function = loc.function_name();
  it->second.line = loc.line();
}

/// Frame deallocation hook (sim::Coro promise operator delete): unregister,
/// poison under APN_CHECK, release.
inline void frame_destroyed(void* p, std::size_t bytes) {
  if (detail::g_ever.load(std::memory_order_relaxed)) {
    detail::Registry& r = detail::reg();
    bool tracked;
    {
      std::lock_guard<std::mutex> lk(r.mu);
      tracked = r.live.erase(p) != 0;
    }
    if (tracked) r.destroyed.fetch_add(1, std::memory_order_relaxed);
  }
  if (poison_enabled()) {
    poison_fill(p, bytes);
    detail::reg().poisoned.fetch_add(1, std::memory_order_relaxed);
  }
  ::operator delete(p, bytes);
}

}  // namespace apn::check::coro
