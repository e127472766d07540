// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench prints (a) the paper's expected numbers for the experiment it
// regenerates and (b) the model's measured numbers, in a diff-friendly
// table. Each measurement uses a fresh Simulator+Cluster so runs are
// independent and bit-reproducible — which also makes them embarrassingly
// parallel: sweep-heavy benches declare their measurements as points on
// `bench::Runner` (a thin wrapper over `exp::ParallelRunner`) and regain
// the core count in wall-clock while producing byte-identical output at
// any `--jobs` level.
//
// Common bench flags (see also EXPERIMENTS.md):
//   --jobs=N           worker threads (default: APN_JOBS, else all cores)
//   --filter=<substr>  run only points whose name contains the substring
//   --list             print point names (one per line) and exit
//   --hw-profile=<n>   hardware profile (APN_HW_PROFILE; docs/HARDWARE.md)
//   --json=<path>      NDJSON record per measured point (APN_BENCH_JSON)
//   --check            enable the same-tick race detector (like APN_CHECK=1)
//   --coro-check       enable the coroutine frame-lifetime oracle (like
//                      APN_CORO_CHECK=1): report + abort at exit if any
//                      frame is still suspended
//   --state-hash-out=F write per-event rolling state hashes to F; diffing
//                      two runs' files pinpoints the first divergent event
#pragma once

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "check/coro_check.hpp"
#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "common/table.hpp"
#include "exp/runner.hpp"
#include "hw/profile.hpp"

namespace apn::bench {

/// Machine-readable result sink: one JSON record per measured point, as
/// newline-delimited JSON. Enabled by `--json=<path>` on the bench command
/// line or the APN_BENCH_JSON environment variable (flag wins). Each record
/// is {"bench": ..., "point": ..., "hw_profile": ..., "model": ...,
/// "paper": ...} where `hw_profile` names the hardware profile the point
/// ran under (docs/HARDWARE.md) and `paper` is null when the paper gives
/// no quantitative target for the point. Inert (no file, no output) when neither switch is present, so
/// the human-readable tables stay the default interface.
///
/// Concurrency: the sink is internally synchronized, and every record is
/// flushed to the file as soon as it is written, so an aborted run keeps
/// every completed line of NDJSON. Under `bench::Runner` the records a
/// point emits while measuring are captured in a per-point buffer and
/// flushed in declaration order, so the NDJSON stream is byte-identical
/// at any job count.
class JsonSink {
 public:
  static JsonSink& global() {
    static JsonSink sink;
    return sink;
  }

  /// Parse --json=<path> / APN_BENCH_JSON; call once at bench startup.
  /// An explicit empty `--json=` is a usage error (exit 2); an empty
  /// APN_BENCH_JSON is reported and treated as unset.
  void init(int argc, char** argv) {
    const char* flag = nullptr;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--json=", 7) == 0) flag = argv[i] + 7;
    }
    if (flag != nullptr && *flag == '\0') {
      std::fprintf(stderr, "error: --json= requires a non-empty path\n");
      std::exit(2);
    }
    const char* path = flag;
    if (path == nullptr) {
      path = std::getenv("APN_BENCH_JSON");
      if (path != nullptr && *path == '\0') {
        std::fprintf(
            stderr,
            "warning: APN_BENCH_JSON is empty; NDJSON output disabled\n");
        return;
      }
    }
    if (path == nullptr) return;
    open(path);
  }

  /// Open `path` for NDJSON output (closing any previous file). Returns
  /// false (with a warning) when the file cannot be created.
  bool open(const std::string& path) {
    close();
    out_ = std::fopen(path.c_str(), "w");
    if (out_ == nullptr) {
      std::fprintf(stderr, "warning: cannot open %s for JSON output\n",
                   path.c_str());
      return false;
    }
    return true;
  }

  void close() {
    if (out_ != nullptr) std::fclose(out_);
    out_ = nullptr;
  }

  bool enabled() const { return out_ != nullptr; }

  /// Emit one measurement. Pass NAN for `paper` when the paper has no
  /// number for this point (serialized as null). Buffered per-point under
  /// the runner; written and flushed immediately otherwise.
  void record(const std::string& bench, const std::string& point,
              double model, double paper = NAN) {
    if (out_ == nullptr) return;
    // hw::active() honors the calling thread's ScopedProfile, so points
    // that build per-profile clusters tag their rows correctly.
    std::string line = "{\"bench\": \"" + escaped(bench) +
                       "\", \"point\": \"" + escaped(point) +
                       "\", \"hw_profile\": \"" + escaped(hw::active().name) +
                       "\", ";
    append_number(line, "model", model);
    line += ", ";
    append_number(line, "paper", paper);
    line += "}\n";
    if (std::string* buf = tls_buffer()) {
      *buf += line;
      return;
    }
    write_raw(line);
  }

  /// Route this thread's records into `buf` (nullptr restores direct
  /// writes). Used by bench::Runner to commit point records in
  /// declaration order.
  void set_thread_buffer(std::string* buf) { tls_buffer() = buf; }

  /// Write pre-formatted record text (a point's buffered lines) under the
  /// sink lock, flushing so partial output survives aborted runs.
  void write_raw(const std::string& text) {
    if (out_ == nullptr || text.empty()) return;
    std::lock_guard<std::mutex> lk(mu_);
    std::fwrite(text.data(), 1, text.size(), out_);
    std::fflush(out_);
  }

  ~JsonSink() { close(); }

 private:
  JsonSink() = default;
  JsonSink(const JsonSink&) = delete;
  JsonSink& operator=(const JsonSink&) = delete;

  static std::string*& tls_buffer() {
    thread_local std::string* b = nullptr;
    return b;
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  static void append_number(std::string& out, const char* key, double v) {
    char buf[64];
    if (std::isnan(v))
      std::snprintf(buf, sizeof buf, "\"%s\": null", key);
    else
      std::snprintf(buf, sizeof buf, "\"%s\": %.17g", key, v);
    out += buf;
  }

  std::mutex mu_;
  std::FILE* out_ = nullptr;
};

/// Bench-side wrapper over exp::ParallelRunner: parses the shared bench
/// flags (--jobs/--filter/--list via the runner, --json via JsonSink) and
/// wraps every point so JsonSink records emitted during the concurrent
/// work phase are flushed in declaration order.
class Runner {
 public:
  Runner(int argc, char** argv) : inner_(parse_options(argc, argv)) {
    JsonSink::global().init(argc, argv);
    init_check_flags(argc, argv);
  }

  /// Parse --check / --coro-check / --state-hash-out=<path> (shared with
  /// bus_analyzer). --check and --state-hash-out= arm the race detector
  /// for every Simulator built after this call (cluster::Cluster installs
  /// a check::Session from it); --coro-check arms the frame-lifetime
  /// oracle and its exit report.
  static void init_check_flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--check") == 0) {
        check::Session::force_enable(true);
      } else if (std::strcmp(argv[i], "--coro-check") == 0) {
        check::coro::force_enable(true);
        check::coro::install_exit_report();
      } else if (std::strncmp(argv[i], "--state-hash-out=", 17) == 0) {
        const char* path = argv[i] + 17;
        if (*path == '\0') {
          std::fprintf(stderr,
                       "error: --state-hash-out= requires a path\n");
          std::exit(2);
        }
        check::Session::force_enable(true);
        check::HashSink::global().open(path);
      }
    }
  }

  /// Declare one measurement point. `work` runs concurrently and must own
  /// everything it touches (fresh Simulator+Cluster, distinct result
  /// slot). It may return a commit closure to run on the main thread in
  /// declaration order, or return void when slot writes are enough.
  template <typename F>
  void add(std::string name, F&& work) {
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      add_point(std::move(name), [w = std::forward<F>(work)]() mutable {
        w();
        return exp::ParallelRunner::Commit{};
      });
    } else {
      add_point(std::move(name), exp::ParallelRunner::Work(
                                     std::forward<F>(work)));
    }
  }

  /// Execute all points (honoring --filter / --list); commits and NDJSON
  /// flush in declaration order. Returns the number of points executed.
  /// Under --list a `# hw-profile:` header precedes the point names so
  /// listings are self-describing across hardware generations.
  std::size_t run() {
    if (inner_.options().list)
      std::printf("# hw-profile: %s\n", hw::active().name.c_str());
    return inner_.run();
  }

  int jobs() const { return inner_.jobs(); }

 private:
  /// Parse the runner flags and select --hw-profile; a malformed --jobs /
  /// APN_JOBS or an unknown profile is a usage error (exit 2).
  static exp::RunnerOptions parse_options(int argc, char** argv) {
    try {
      exp::RunnerOptions opt = exp::RunnerOptions::from_args(argc, argv);
      if (!opt.hw_profile.empty()) hw::select(opt.hw_profile);
      return opt;
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(2);
    }
  }

  void add_point(std::string name, exp::ParallelRunner::Work work) {
    std::string point = name;
    inner_.add(std::move(name),
               [work = std::move(work), point = std::move(point)]() {
      JsonSink& js = JsonSink::global();
      check::HashSink& hs = check::HashSink::global();
      std::string buffered;
      std::string hash_buffered;
      js.set_thread_buffer(&buffered);
      if (hs.enabled()) {
        hs.set_thread_buffer(&hash_buffered);
        hs.note("point " + point);
      }
      exp::ParallelRunner::Commit commit;
      try {
        commit = work();
      } catch (...) {
        js.set_thread_buffer(nullptr);
        hs.set_thread_buffer(nullptr);
        throw;
      }
      js.set_thread_buffer(nullptr);
      hs.set_thread_buffer(nullptr);
      return exp::ParallelRunner::Commit(
          [commit = std::move(commit), buffered = std::move(buffered),
           hash_buffered = std::move(hash_buffered)]() {
            JsonSink::global().write_raw(buffered);
            check::HashSink::global().write_raw(hash_buffered);
            if (commit) commit();
          });
    });
  }

  exp::ParallelRunner inner_;
};

/// One cell of a bench result matrix, filled in by a runner point; prints
/// "-" until set so --filter reruns render partial tables gracefully.
struct Cell {
  double v = NAN;
  bool filled = false;
  Cell& operator=(double x) {
    v = x;
    filled = true;
    return *this;
  }
  std::string str(const char* fmt) const {
    return filled ? strf(fmt, v) : "-";
  }
};

/// Message sizes of the paper's bandwidth figures (32 B - 4 MB).
inline std::vector<std::uint64_t> sweep_32B_4MB() {
  std::vector<std::uint64_t> v;
  for (std::uint64_t s = 32; s <= (4ull << 20); s *= 2) v.push_back(s);
  return v;
}

/// Message sizes of Figs. 4-5 (4 KB - 4 MB).
inline std::vector<std::uint64_t> sweep_4K_4MB() {
  std::vector<std::uint64_t> v;
  for (std::uint64_t s = 4096; s <= (4ull << 20); s *= 2) v.push_back(s);
  return v;
}

/// Latency-figure sizes (32 B - 4 KB / 64 KB).
inline std::vector<std::uint64_t> sweep_32B(std::uint64_t max) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t s = 32; s <= max; s *= 2) v.push_back(s);
  return v;
}

/// Repetition count that keeps total traffic meaningful but bounded.
inline int reps_for(std::uint64_t size, std::uint64_t target_bytes) {
  std::uint64_t n = target_bytes / size;
  if (n < 4) return 4;
  if (n > 512) return 512;
  return static_cast<int>(n);
}

inline void print_header(const char* id, const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("================================================================\n");
}

/// Scale knob for the heavyweight app benches (BFS graph scale), settable
/// via APN_BENCH_SCALE to trade fidelity for runtime.
inline int bfs_scale() {
  if (const char* s = std::getenv("APN_BENCH_SCALE")) return std::atoi(s);
  return 20;  // the paper's |V| = 2^20
}

}  // namespace apn::bench
