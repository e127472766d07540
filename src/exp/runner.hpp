// Parallel experiment runner: executes independent simulation closures
// ("points") concurrently on a fixed thread pool while committing their
// side effects in declaration order, so every output artifact — tables,
// NDJSON records, trace files — is byte-identical at any job count.
//
// Execution model:
//  * A point is a Work closure that builds its own Simulator + Cluster,
//    runs it, and returns a Commit closure (possibly empty). Work runs on
//    a pool thread; the Commit runs on the thread that called run(), in
//    declaration order, as soon as the point and all its predecessors
//    have finished. Point results that need no ordering (each point
//    writing a distinct result slot) may simply be stored from Work;
//    run() joining the pool publishes them.
//  * Isolation: before invoking Work the runner installs a fresh
//    trace::MetricsScope and — when APN_TRACE is enabled — a per-point
//    trace::TraceSink, so concurrently-running simulations cannot share
//    observability state. Per-point traces are written to
//    $APN_TRACE_OUT-derived paths ("apn_trace.json" -> "apn_trace.p0003.json")
//    during the ordered commit phase.
//  * Determinism: each simulation is single-threaded and owns every piece
//    of mutable state it touches (the repo keeps no process-global
//    simulation state), so the simulated timings are independent of the
//    job count; ordered commits make the *output* independent of it too.
//    tests/test_parallel_runner.cpp pins this contract.
//
// The pool is deliberately work-stealing-free: one shared atomic cursor
// hands points to workers in declaration order, which keeps start order
// deterministic and the structure simple; points are coarse (whole
// simulations), so stealing would buy nothing.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace apn::exp {

/// Runner configuration, typically parsed from the bench command line.
struct RunnerOptions {
  /// Worker count; 0 means auto (hardware_concurrency, at least 1).
  int jobs = 0;
  /// Substring filter: only points whose name contains it are executed.
  std::string filter;
  /// Print the declared point names instead of running anything.
  bool list = false;
  /// Hardware profile name (hw::select key). Empty means "leave the
  /// process default alone"; validation happens in bench::Runner, which
  /// resolves the name against the hw registry.
  std::string hw_profile;
  /// NDJSON output path; empty means no NDJSON.
  std::string json;
  /// Arm the race detector / the coroutine frame-lifetime oracle.
  bool check = false;
  bool coro_check = false;
  /// State-hash output path; empty means no hash file.
  std::string state_hash_out;

  /// Parse the bench flags from argv, plus the APN_JOBS, APN_HW_PROFILE
  /// and APN_BENCH_JSON environment variables (flags win; an empty
  /// variable counts as unset). Throws std::invalid_argument on a bad job
  /// count, an empty flag value, or any other argument (the message then
  /// lists every flag, from the same table the parser walks).
  static RunnerOptions from_args(int argc, char** argv);
};

/// Parse the whole of `v` as a decimal integer in [lo, hi]; throws
/// std::invalid_argument naming `source` on anything else.
int parse_int(std::string_view v, const char* source, int lo, int hi);

class ParallelRunner {
 public:
  /// Ordered side-effect phase of a point; empty commits are allowed.
  using Commit = std::function<void()>;
  /// Concurrent phase of a point: measure, then return the commit.
  using Work = std::function<Commit()>;

  explicit ParallelRunner(RunnerOptions opt = {});

  /// Declare a measurement point. `name` is the --filter / --list handle
  /// (convention: "<bench>/<variant>/<size>"); `work` must be
  /// self-contained apart from writing results to slots no other point
  /// touches.
  void add(std::string name, Work work);

  /// Execute every declared point that matches the filter and run their
  /// commits in declaration order; returns the number of points executed
  /// (0 under --list). Exceptions thrown by a point are rethrown here, in
  /// declaration order, after the pool drains.
  std::size_t run();

  /// Resolved worker count.
  int jobs() const { return jobs_; }
  const RunnerOptions& options() const { return opt_; }

 private:
  struct PointDecl {
    std::string name;
    Work work;
  };

  RunnerOptions opt_;
  int jobs_;
  std::vector<PointDecl> points_;
};

}  // namespace apn::exp
