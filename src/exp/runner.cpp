#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace apn::exp {

namespace {

constexpr int kMaxJobs = std::numeric_limits<int>::max();

int auto_jobs() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

/// Per-point trace path: $APN_TRACE_OUT (default "apn_trace.json") with
/// ".pNNNN" spliced in before the extension, keyed by the point's position
/// in the (filtered) execution order so the mapping is stable across job
/// counts. The commit-phase stderr note names the point.
std::string trace_point_path(std::size_t seq) {
  const char* base = std::getenv("APN_TRACE_OUT");
  if (base == nullptr || base[0] == '\0') base = "apn_trace.json";
  std::string path(base);
  char tag[16];
  std::snprintf(tag, sizeof tag, ".p%04zu", seq);
  std::size_t dot = path.rfind('.');
  std::size_t slash = path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + tag;
  }
  return path.substr(0, dot) + tag + path.substr(dot);
}

/// One bench flag: a switch ("--list") or, ending in '=', a flag that
/// takes the rest of the argument as a non-empty value.
struct Flag {
  std::string_view spelling;
  std::string_view help;
  void (*set)(RunnerOptions&, std::string_view value);
};

constexpr Flag kFlags[] = {
    {"--jobs=", "worker threads, 0 = all cores (env APN_JOBS)",
     [](auto& o, auto v) { o.jobs = parse_int(v, "--jobs", 0, kMaxJobs); }},
    {"--filter=", "run only points whose name contains this substring",
     [](auto& o, auto v) { o.filter = v; }},
    {"--list", "print the point names and exit",
     [](auto& o, auto) { o.list = true; }},
    {"--hw-profile=", "hardware profile (env APN_HW_PROFILE)",
     [](auto& o, auto v) { o.hw_profile = v; }},
    {"--json=", "write one NDJSON record per result (env APN_BENCH_JSON)",
     [](auto& o, auto v) { o.json = v; }},
    {"--check", "arm the same-tick race detector (like APN_CHECK=1)",
     [](auto& o, auto) { o.check = true; }},
    {"--coro-check",
     "arm the coroutine frame-lifetime oracle (like APN_CORO_CHECK=1)",
     [](auto& o, auto) { o.coro_check = true; }},
    {"--state-hash-out=", "write per-event state hashes (implies --check)",
     [](auto& o, auto v) { o.state_hash_out = v; }},
};

}  // namespace

int parse_int(std::string_view v, const char* source, int lo, int hi) {
  const char* end = v.data() + v.size();
  int n = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (ec != std::errc() || ptr != end || n < lo || n > hi)
    throw std::invalid_argument(
        std::string("bad ") + source + " value '" + std::string(v) +
        "' (expected an integer in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "])");
  return n;
}

RunnerOptions RunnerOptions::from_args(int argc, char** argv) {
  RunnerOptions opt;
  if (const char* env = std::getenv("APN_JOBS"); env && *env != '\0')
    opt.jobs = parse_int(env, "APN_JOBS", 0, kMaxJobs);
  if (const char* env = std::getenv("APN_HW_PROFILE")) opt.hw_profile = env;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const Flag* f = std::find_if(std::begin(kFlags), std::end(kFlags),
                                 [a](const Flag& flag) {
      return flag.spelling.ends_with('=') ? a.starts_with(flag.spelling)
                                          : a == flag.spelling;
    });
    if (f == std::end(kFlags)) {
      std::string msg = "unknown option '" + std::string(a) + "'; options:";
      for (const Flag& flag : kFlags) {
        std::string line = "\n  " + std::string(flag.spelling);
        line.resize(22, ' ');  // every spelling fits in the gutter
        msg += line + std::string(flag.help);
      }
      throw std::invalid_argument(msg);
    }
    const std::string_view value = a.substr(f->spelling.size());
    if (f->spelling.ends_with('=') && value.empty())
      throw std::invalid_argument(std::string(a) + " needs a value");
    f->set(opt, value);
  }
  const char* env_json = std::getenv("APN_BENCH_JSON");
  if (env_json != nullptr && opt.json.empty()) {
    opt.json = env_json;
    if (opt.json.empty())
      std::fprintf(stderr,
                   "warning: APN_BENCH_JSON is empty; NDJSON output "
                   "disabled\n");
  }
  return opt;
}

ParallelRunner::ParallelRunner(RunnerOptions opt)
    : opt_(std::move(opt)), jobs_(opt_.jobs > 0 ? opt_.jobs : auto_jobs()) {}

void ParallelRunner::add(std::string name, Work work) {
  points_.push_back(PointDecl{std::move(name), std::move(work)});
}

std::size_t ParallelRunner::run() {
  if (opt_.list) {
    for (const PointDecl& p : points_) std::printf("%s\n", p.name.c_str());
    return 0;
  }

  std::vector<const PointDecl*> selected;
  selected.reserve(points_.size());
  for (const PointDecl& p : points_) {
    if (opt_.filter.empty() || p.name.find(opt_.filter) != std::string::npos)
      selected.push_back(&p);
  }
  const std::size_t n = selected.size();
  const bool tracing = trace::env_enabled();

  struct Slot {
    Commit commit;
    std::string trace_json;
    std::size_t trace_events = 0;
    std::exception_ptr error;
    bool done = false;
  };
  std::vector<Slot> slots(n);

  // Concurrent phase of one point, with the per-simulation observability
  // scopes installed. Runs on a pool thread (or inline when jobs == 1).
  auto execute = [&](std::size_t i) {
    Slot& s = slots[i];
    trace::MetricsScope metrics;
    std::unique_ptr<trace::TraceSink> sink;
    std::optional<trace::SinkScope> scope;
    if (tracing) {
      sink = std::make_unique<trace::TraceSink>();
      scope.emplace(sink.get());
    }
    try {
      s.commit = selected[i]->work();
    } catch (...) {
      s.error = std::current_exception();
    }
    if (sink != nullptr && sink->size() > 0) {
      // Serialize on the worker (parallel); the file write itself happens
      // in the ordered commit phase.
      s.trace_json = sink->chrome_json();
      s.trace_events = sink->size();
    }
  };

  // Ordered phase: trace file, then the point's commit. Called on the
  // run() thread in declaration order; rethrows the point's exception.
  auto finish = [&](std::size_t i) {
    Slot& s = slots[i];
    if (!s.trace_json.empty()) {
      const std::string path = trace_point_path(i);
      std::FILE* f = std::fopen(path.c_str(), "w");
      bool ok = f != nullptr;
      if (ok) {
        ok = std::fwrite(s.trace_json.data(), 1, s.trace_json.size(), f) ==
             s.trace_json.size();
        ok = (std::fclose(f) == 0) && ok;
      }
      if (ok)
        std::fprintf(stderr, "[apn::trace] wrote %zu events to %s (%s)\n",
                     s.trace_events, path.c_str(),
                     selected[i]->name.c_str());
      else
        std::fprintf(stderr, "[apn::trace] failed to write %s\n",
                     path.c_str());
      s.trace_json.clear();
    }
    if (s.error) std::rethrow_exception(s.error);
    if (s.commit) {
      s.commit();
      s.commit = nullptr;
    }
  };

  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(jobs_),
                                             n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      execute(i);
      finish(i);
    }
    return n;
  }

  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || stop.load(std::memory_order_relaxed)) break;
      execute(i);
      {
        std::lock_guard<std::mutex> lk(mu);
        slots[i].done = true;
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return slots[i].done; });
      }
      finish(i);
    }
  } catch (...) {
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  return n;
}

}  // namespace apn::exp
