// perfbench: the benchmark program. Runs one workload as a closed loop of
// passes over its points on a single thread, for a given number of
// seconds, and prints one JSON result line that run.py checks and turns
// into the benchmark's metrics.
//
//   perfbench --workload <name> --seconds <s> [--trace-run]
//             --rmat-seed N --root-seed N --lattice-seed N
//             [--trace-out <path>] [--setup-only]
//
// Protocol on stdout: "READY" once set-up (argument parsing, point list,
// one untimed warm-up point) is done, then "RESULT {...}" at the end.
// --setup-only exits after READY. --trace-run spends the first half of the
// time on untraced passes and the second half on traced passes, and adds
// the per-layer numbers (from spans and layer counters) to the result.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/profile.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
  Inputs in{};
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (*v == '\0' || *end != '\0' || *v == '-')
    usage(std::string(flag) + " expects a non-negative integer");
  return x;
}

Args parse(int argc, char** argv) {
  Args a;
  bool rmat = false, root = false, lattice = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--trace-run") {
      a.trace = true;
      continue;
    }
    if (f == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + f);
    const char* v = argv[++i];
    if (f == "--workload") {
      a.workload = v;
    } else if (f == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (f == "--trace-out") {
      a.trace_out = v;
    } else if (f == "--rmat-seed") {
      a.in.rmat_seed = parse_u64(argv[i - 1], v);
      rmat = true;
    } else if (f == "--root-seed") {
      a.in.root_seed = parse_u64(argv[i - 1], v);
      root = true;
    } else if (f == "--lattice-seed") {
      a.in.lattice_seed = parse_u64(argv[i - 1], v);
      lattice = true;
    } else {
      usage("unknown flag " + f);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  // The inputs come from run.py only, so the program has no input set of
  // its own.
  if (!rmat || !root || !lattice)
    usage("--rmat-seed, --root-seed and --lattice-seed are required");
  return a;
}

struct PointStats {
  std::vector<double> host_s;  ///< untraced executions
  bool have = false;           ///< value/aux/events hold the first result
  double value = 0, aux = 0;
  std::uint64_t events = 0;
  int runs = 0, errors = 0, mismatches = 0, invalid = 0;
};

struct Pass {
  bool traced = false;
  double points_s = 0;  ///< sum of the points' host times
  Counters counters;
};

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort
}

class Driver {
 public:
  explicit Driver(const Args& a)
      : args_(a),
        points_(make_points(a.workload, a.in)),
        stats_(points_.size()),
        analyzers_(points_.size()),
        cpus_(allowed_cpus()) {}

  /// One untimed point, so lazy set-up has finished before timing starts.
  void warm_up() {
    Ctx ctx{tracer_, {}, 0};
    try {
      points_.front().run(ctx);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: warm-up point failed: %s\n", e.what());
    }
  }

  /// Passes until the next one would overrun `budget_s`; at least one.
  /// Each pass runs on the next allowed CPU in turn, so every point's
  /// fastest repetition is taken over all of them: on a shared virtual
  /// machine each CPU's speed varies with what its host core's neighbours
  /// run, and over a run some CPU is usually quiet.
  void run_passes(bool traced, double budget_s) {
    const std::int64_t start = now_ns();
    double last = 0;
    do {
      if (!cpus_.empty()) pin_to(cpus_[passes_.size() % cpus_.size()]);
      const std::int64_t t0 = now_ns();
      passes_.push_back(run_pass(traced));
      last = static_cast<double>(now_ns() - t0) * 1e-9;
    } while (static_cast<double>(now_ns() - start) * 1e-9 + last <= budget_s);
  }

  std::string result_json() const;
  void write_trace(const std::string& path) const;

 private:
  Pass run_pass(bool traced);
  std::map<std::string, double> layer_metrics() const;

  const Args& args_;
  std::vector<Point> points_;
  std::vector<PointStats> stats_;
  std::vector<std::deque<apn::pcie::BusAnalyzer>> analyzers_;  ///< per point
  std::vector<Pass> passes_;
  std::vector<int> cpus_;
  Tracer tracer_;
};

Pass Driver::run_pass(bool traced) {
  Pass pass;
  pass.traced = traced;
  tracer_.on = traced;
  tracer_.pass = static_cast<int>(passes_.size());
  Ctx ctx{tracer_, {}, 0};
  for (std::size_t i = 0; i < points_.size(); ++i) {
    PointStats& st = stats_[i];
    tracer_.point = static_cast<int>(i);
    ctx.point_events = 0;
    ctx.analyzers = &analyzers_[i];
    Outcome o;
    bool ok = true;
    const int root = traced ? tracer_.open("point", false) : -1;
    const std::int64_t t0 = now_ns();
    try {
      o = points_[i].run(ctx);
    } catch (const std::exception& e) {
      ok = false;
      if (st.errors == 0)
        std::fprintf(stderr, "perfbench: %s threw: %s\n",
                     points_[i].name.c_str(), e.what());
    }
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    if (root >= 0) tracer_.close(root);
    pass.points_s += dt;
    if (!traced) st.host_s.push_back(dt);
    ++st.runs;
    if (!ok) {
      ++st.errors;
      continue;
    }
    if (!o.valid) ++st.invalid;
    if (!st.have) {
      st.have = true;
      st.value = o.value;
      st.aux = o.aux;
      st.events = ctx.point_events;
    } else if (o.value != st.value || o.aux != st.aux ||
               ctx.point_events != st.events) {
      ++st.mismatches;  // a rerun on identical inputs must repeat exactly
    }
  }
  tracer_.on = false;
  pass.counters = ctx.counters;
  return pass;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer numbers of each traced pass, then the median over passes.
/// Times are self times: a span's duration minus its child spans'.
std::map<std::string, double> Driver::layer_metrics() const {
  const std::vector<Span>& spans = tracer_.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;

  struct Layer {
    double self_ms = 0;
    double allocs = 0;  ///< inclusive of child spans
  };
  std::map<int, std::map<std::string, Layer>> by_pass;
  std::map<int, double> probe_s;
  std::map<int, double> span_count;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Layer& l = by_pass[s.pass][s.name];
    l.self_ms += static_cast<double>(s.t1 - s.t0 - child_ns[i]) * 1e-6;
    l.allocs += static_cast<double>(s.allocs1 - s.allocs0);
    const bool top_probe =
        s.probe && (s.parent < 0 ||
                    !spans[static_cast<std::size_t>(s.parent)].probe);
    if (top_probe) probe_s[s.pass] += static_cast<double>(s.t1 - s.t0) * 1e-9;
    span_count[s.pass] += 1;
  }

  std::map<std::string, std::vector<double>> samples;
  std::vector<double> untraced_s, traced_net_s;
  for (std::size_t p = 0; p < passes_.size(); ++p) {
    const Pass& pass = passes_[p];
    if (!pass.traced) {
      untraced_s.push_back(pass.points_s);
      continue;
    }
    const int pi = static_cast<int>(p);
    traced_net_s.push_back(pass.points_s - probe_s[pi]);
    std::map<std::string, Layer>& L = by_pass[pi];
    const Counters& k = pass.counters;
    const double drive_ms = L["cluster.harness"].self_ms +
                            L["bfs.run"].self_ms + L["hsg.run"].self_ms;
    const double sim_allocs =
        L["cluster.harness"].allocs + L["bfs.run"].allocs + L["hsg.run"].allocs;
    const double events = static_cast<double>(k.events);
    const double chunks = static_cast<double>(k.chunks);
    std::map<std::string, double> m = {
        {"sim.events", events},
        {"sim.host_ns_per_event", ratio(drive_ms * 1e6, events)},
        {"sim.allocs", sim_allocs},
        {"sim.allocs_per_kevent", ratio(sim_allocs * 1e3, events)},
        {"pcie.chunks", chunks},
        {"pcie.host_ns_per_chunk", ratio(drive_ms * 1e6, chunks)},
        {"core.nios_jobs", static_cast<double>(k.nios_jobs)},
        {"core.nios_util", ratio(k.nios_busy_ps, k.nios_span_ps)},
        {"core.tx_packets", static_cast<double>(k.tx_packets)},
        {"core.rx_packets", static_cast<double>(k.rx_packets)},
        {"core.rx_drops", static_cast<double>(k.rx_drops)},
        {"core.rdma_reg_misses", static_cast<double>(k.reg_misses)},
        {"gpu.p2p_requests", static_cast<double>(k.p2p_requests)},
        {"gpu.p2p_bytes", static_cast<double>(k.p2p_bytes)},
        {"gpu.window_switches", static_cast<double>(k.window_switches)},
        {"gpu.bar1_reads", static_cast<double>(k.bar1_reads)},
        {"gpu.copy_jobs", static_cast<double>(k.copy_jobs)},
        {"cluster.assemble_ms", L["cluster.assemble"].self_ms},
        {"cluster.harness_ms", L["cluster.harness"].self_ms},
        {"bfs.build_ms", L["bfs.build"].self_ms},
        {"bfs.run_ms", L["bfs.run"].self_ms},
        {"bfs.allocs", L["bfs.build"].allocs + L["bfs.run"].allocs},
        {"bfs.teps_sim", ratio(k.teps_sum, static_cast<double>(k.bfs_points))},
        {"bfs.rmat_ms", L["bfs.rmat"].self_ms},
        {"bfs.csr_ms", L["bfs.csr"].self_ms},
        {"bfs.levels_ms", L["bfs.levels"].self_ms},
        {"bfs.validate_ms", L["bfs.validate"].self_ms},
        {"hsg.run_ms", L["hsg.run"].self_ms},
        {"hsg.energy_drift", k.drift_max},
        {"hsg.update_ms", L["hsg.update"].self_ms},
        {"hsg.pack_ms", L["hsg.pack"].self_ms},
        {"driver.point_other_ms", L["point"].self_ms},
        {"trace.spans", span_count[pi]},
    };
    for (const auto& [name, v] : m) samples[name].push_back(v);
  }

  std::map<std::string, double> out;
  for (const auto& [name, v] : samples) out[name] = median(v);
  out["trace.overhead_frac"] =
      ratio(median(traced_net_s), median(untraced_s)) - 1.0;
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Driver::result_json() const {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  int untraced = 0;
  for (const Pass& p : passes_) untraced += p.traced ? 0 : 1;
  std::string j = "{\"workload\": \"" + args_.workload + "\"";
  j += ", \"passes\": " + std::to_string(untraced);
  j += ", \"traced_passes\": " + std::to_string(passes_.size() - untraced);
  j += ", \"peak_rss_kb\": " + std::to_string(ru.ru_maxrss);
  j += ", \"points\": [";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const PointStats& st = stats_[i];
    if (i > 0) j += ", ";
    j += "{\"name\": \"" + points_[i].name + "\", \"unit\": \"" +
         points_[i].unit + "\"";
    j += ", \"value\": " + num(st.value) + ", \"aux\": " + num(st.aux);
    j += ", \"events\": " + std::to_string(st.events);
    j += ", \"runs\": " + std::to_string(st.runs);
    j += ", \"errors\": " + std::to_string(st.errors);
    j += ", \"mismatches\": " + std::to_string(st.mismatches);
    j += ", \"invalid\": " + std::to_string(st.invalid);
    j += ", \"host_s\": [";
    for (std::size_t k = 0; k < st.host_s.size(); ++k)
      j += (k > 0 ? ", " : "") + num(st.host_s[k]);
    j += "]}";
  }
  j += "]";
  if (args_.trace) {
    j += ", \"layers\": {";
    bool first = true;
    for (const auto& [name, v] : layer_metrics()) {
      j += (first ? "\"" : ", \"") + name + "\": " + num(v);
      first = false;
    }
    j += "}";
  }
  return j + "}";
}

/// Chrome trace-event JSON of every span (open in chrome://tracing or
/// Perfetto); written once, after the last pass.
void Driver::write_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const std::vector<Span>& spans = tracer_.spans();
  const std::int64_t base = spans.empty() ? 0 : spans.front().t0;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"pass\": %d, "
                 "\"point\": \"%s\", \"allocs\": %llu}}\n",
                 i > 0 ? "," : "", s.name,
                 static_cast<double>(s.t0 - base) * 1e-3,
                 static_cast<double>(s.t1 - s.t0) * 1e-3, s.pass,
                 points_[static_cast<std::size_t>(s.point)].name.c_str(),
                 static_cast<unsigned long long>(s.allocs1 - s.allocs0));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Pin glibc's mmap threshold at its default, which turns off its dynamic
  // adjustment. That adjustment follows the sizes of the blocks freed so
  // far, so whether a large block came from the heap, and with it the peak
  // resident set, depended on the R-MAT seed (19.7 or 23.6 MB on
  // bfs_graph500).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Args args = parse(argc, argv);
  apn::hw::select("apenet_2013");
  std::optional<Driver> driver;
  try {
    driver.emplace(args);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  driver->warm_up();
  std::printf("READY\n");
  std::fflush(stdout);
  if (args.setup_only) return 0;

  if (args.trace) {
    driver->run_passes(false, args.seconds / 2);
    driver->run_passes(true, args.seconds / 2);
  } else {
    driver->run_passes(false, args.seconds);
  }
  std::printf("RESULT %s\n", driver->result_json().c_str());
  if (args.trace && !args.trace_out.empty())
    driver->write_trace(args.trace_out);
  return 0;
}
