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
// Every bench takes the same eight flags: --jobs=, --filter=, --list,
// --hw-profile=, --json=, --check, --coro-check and --state-hash-out=.
// exp::RunnerOptions::from_args parses them from one table (an unknown
// argument gets the table's listing); EXPERIMENTS.md explains each.
// bench::Runner applies them. Any other argument, a malformed value or an
// output path that cannot be created prints `error: ...` and exits 2.
#pragma once

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "common/ordered_file.hpp"
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
class JsonSink : public OrderedFile<JsonSink> {
 public:
  /// Emit one measurement. Pass NAN for `paper` when the paper has no
  /// number for this point (serialized as null).
  void record(const std::string& bench, const std::string& point,
              double model, double paper = NAN) {
    if (!enabled()) return;
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
    emit(line);
  }

 private:
  friend OrderedFile<JsonSink>;
  JsonSink() = default;

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
};

/// Bench-side wrapper over exp::ParallelRunner: applies the parsed bench
/// flags (hardware profile, NDJSON and state-hash files, checkers) and
/// captures every point's NDJSON records and state-hash lines, so both
/// files are written in declaration order.
class Runner {
 public:
  Runner(int argc, char** argv) : inner_(apply_options(argc, argv)) {}

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
  /// Parse the bench flags and apply them; an unknown or malformed flag,
  /// an unknown profile or an output file that cannot be created is a
  /// usage error (exit 2).
  static exp::RunnerOptions apply_options(int argc, char** argv) {
    try {
      exp::RunnerOptions opt = exp::RunnerOptions::from_args(argc, argv);
      if (!opt.hw_profile.empty()) hw::select(opt.hw_profile);
      if (!opt.json.empty()) JsonSink::global().open(opt.json);
      check::apply_flags(opt.check, opt.coro_check, opt.state_hash_out);
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
      std::string json;
      std::string hashes;
      exp::ParallelRunner::Commit commit;
      {
        JsonSink::Capture json_capture(json);
        check::HashSink::Capture hash_capture(hashes);
        check::HashSink::global().note("point " + point);
        commit = work();
      }
      return exp::ParallelRunner::Commit(
          [commit = std::move(commit), json = std::move(json),
           hashes = std::move(hashes)]() {
            JsonSink::global().write(json);
            check::HashSink::global().write(hashes);
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
/// via APN_BENCH_SCALE to trade fidelity for runtime. Anything but an
/// integer in [1, 31] is a usage error (exit 2); empty counts as unset.
inline int bfs_scale() {
  const char* s = std::getenv("APN_BENCH_SCALE");
  if (s == nullptr || *s == '\0') return 20;  // the paper's |V| = 2^20
  try {
    return exp::parse_int(s, "APN_BENCH_SCALE", 1, 31);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

}  // namespace apn::bench
