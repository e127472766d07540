#include "exp/runner.hpp"

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
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

/// Parse the whole of `v` as a non-negative decimal job count; throws
/// std::invalid_argument naming `source` on an empty value, trailing
/// characters, a sign or overflow.
int parse_jobs(std::string_view v, const char* source) {
  const char* end = v.data() + v.size();
  int n = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (ec != std::errc() || ptr != end || n < 0)
    throw std::invalid_argument(std::string("bad ") + source + " value '" +
                                std::string(v) +
                                "' (expected a non-negative integer)");
  return n;
}

}  // namespace

RunnerOptions RunnerOptions::from_args(int argc, char** argv) {
  RunnerOptions opt;
  if (const char* env = std::getenv("APN_JOBS")) {
    if (*env != '\0') opt.jobs = parse_jobs(env, "APN_JOBS");
  }
  if (const char* env = std::getenv("APN_HW_PROFILE")) {
    if (*env != '\0') opt.hw_profile = env;
  }
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--jobs=", 7) == 0) {
      opt.jobs = parse_jobs(a + 7, "--jobs");
    } else if (std::strncmp(a, "--filter=", 9) == 0) {
      opt.filter = a + 9;
    } else if (std::strcmp(a, "--list") == 0) {
      opt.list = true;
    } else if (std::strncmp(a, "--hw-profile=", 13) == 0) {
      opt.hw_profile = a + 13;
    }
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
        // Host-side std::condition_variable in the worker pool, not a sim
        // awaitable.  apn-lint: allow(dropped-awaitable)
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
