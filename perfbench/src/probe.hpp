// Host-side probes of the benchmark driver: a heap-allocation counter fed
// by the replaced operator new in probe.cpp, and an in-memory span
// recorder that times calls into the simulator's layers from outside.
//
// The driver runs on one thread, so neither probe synchronizes.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Heap allocations (operator new calls) made by this process so far.
std::uint64_t allocations();

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer. Spans of one point share `point`.
struct Span {
  const char* name = "";  ///< layer call, e.g. "cluster.harness"
  int pass = 0;
  int point = 0;
  int parent = -1;     ///< index of the enclosing span, -1 for a point root
  bool probe = false;  ///< traced-run-only direct call, not part of a point
  std::int64_t t0 = 0, t1 = 0;          ///< steady-clock ns
  std::uint64_t allocs0 = 0, allocs1 = 0;  ///< allocation counter
};

/// Keeps every span in memory; off (recording nothing) unless `on`.
class Tracer {
 public:
  bool on = false;
  int pass = 0;
  int point = 0;

  int open(const char* name, bool probe);
  void close(int idx);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int top_ = -1;
};

/// RAII span around one layer call; a no-op while the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, const char* name, bool probe = false)
      : t_(t), idx_(t.on ? t.open(name, probe) : -1) {}
  ~Scope() {
    if (idx_ >= 0) t_.close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

}  // namespace perfbench
