// Pins the parallel experiment runner's contract: byte-identical output at
// any job count, declaration-order commits, per-point observability
// isolation, and the shared bench flag parsing.
#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "trace/metrics.hpp"

namespace {

using namespace apn;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(RunnerOptions, ParsesFlagsAndEnv) {
  unsetenv("APN_JOBS");
  {
    const char* argv[] = {"prog", "--jobs=3", "--filter=abc", "--list"};
    auto o = exp::RunnerOptions::from_args(4, const_cast<char**>(argv));
    EXPECT_EQ(o.jobs, 3);
    EXPECT_EQ(o.filter, "abc");
    EXPECT_TRUE(o.list);
  }
  setenv("APN_JOBS", "2", 1);
  {
    const char* argv[] = {"prog"};
    auto o = exp::RunnerOptions::from_args(1, const_cast<char**>(argv));
    EXPECT_EQ(o.jobs, 2);
  }
  {
    // An explicit flag beats the environment.
    const char* argv[] = {"prog", "--jobs=5"};
    auto o = exp::RunnerOptions::from_args(2, const_cast<char**>(argv));
    EXPECT_EQ(o.jobs, 5);
  }
  unsetenv("APN_JOBS");
}

TEST(RunnerOptions, RejectsMalformedJobs) {
  unsetenv("APN_JOBS");
  const char* bad[] = {"", "abc", "4x", "-1", "+2", "99999999999"};
  for (const char* v : bad) {
    SCOPED_TRACE(std::string("value '") + v + "'");
    const std::string flag = std::string("--jobs=") + v;
    const char* argv[] = {"prog", flag.c_str()};
    EXPECT_THROW(exp::RunnerOptions::from_args(2, const_cast<char**>(argv)),
                 std::invalid_argument);
    if (*v == '\0') continue;  // an empty APN_JOBS counts as unset
    setenv("APN_JOBS", v, 1);
    const char* none[] = {"prog"};
    EXPECT_THROW(exp::RunnerOptions::from_args(1, const_cast<char**>(none)),
                 std::invalid_argument);
    unsetenv("APN_JOBS");
  }
  // Zero still means auto, from the flag and from the environment, and an
  // empty APN_JOBS is ignored.
  {
    const char* argv[] = {"prog", "--jobs=0"};
    EXPECT_EQ(exp::RunnerOptions::from_args(2, const_cast<char**>(argv)).jobs,
              0);
  }
  for (const char* v : {"0", ""}) {
    setenv("APN_JOBS", v, 1);
    const char* argv[] = {"prog"};
    EXPECT_EQ(exp::RunnerOptions::from_args(1, const_cast<char**>(argv)).jobs,
              0);
  }
  unsetenv("APN_JOBS");
}

TEST(ParallelRunner, CommitsRunInDeclarationOrder) {
  exp::RunnerOptions opt;
  opt.jobs = 4;
  exp::ParallelRunner runner(opt);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    runner.add("p" + std::to_string(i), [i, &order]() {
      // Uneven work so completion order differs from declaration order.
      volatile double x = 0;
      for (int k = 0; k < (16 - i) * 20000; ++k) x += k;
      return [i, &order] { order.push_back(i); };
    });
  }
  EXPECT_EQ(runner.run(), 16u);
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelRunner, FilterSelectsBySubstring) {
  exp::RunnerOptions opt;
  opt.jobs = 2;
  opt.filter = "beta";
  exp::ParallelRunner runner(opt);
  std::atomic<int> ran{0};
  for (const char* name : {"alpha/32B", "beta/32B", "gamma/beta-ish"}) {
    runner.add(name, [&ran]() {
      ran.fetch_add(1);
      return exp::ParallelRunner::Commit{};
    });
  }
  EXPECT_EQ(runner.run(), 2u);  // "beta/32B" and "gamma/beta-ish"
  EXPECT_EQ(ran.load(), 2);
}

TEST(ParallelRunner, ListRunsNothing) {
  exp::RunnerOptions opt;
  opt.list = true;
  exp::ParallelRunner runner(opt);
  bool ran = false;
  runner.add("only", [&ran]() {
    ran = true;
    return exp::ParallelRunner::Commit{};
  });
  EXPECT_EQ(runner.run(), 0u);
  EXPECT_FALSE(ran);
}

TEST(ParallelRunner, ExceptionsRethrownInDeclarationOrder) {
  exp::RunnerOptions opt;
  opt.jobs = 4;
  exp::ParallelRunner runner(opt);
  for (int i = 0; i < 8; ++i) {
    runner.add("p" + std::to_string(i), [i]() -> exp::ParallelRunner::Commit {
      if (i == 2) throw std::runtime_error("boom2");
      if (i == 5) throw std::runtime_error("boom5");
      return {};
    });
  }
  try {
    runner.run();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // The first failing point in declaration order wins, at any job count.
    EXPECT_STREQ(e.what(), "boom2");
  }
}

TEST(ParallelRunner, MetricsScopePerPoint) {
  // Each point gets a fresh thread-local MetricsRegistry: counts from
  // other points sharing the worker thread must not leak in.
  exp::RunnerOptions opt;
  opt.jobs = 4;
  exp::ParallelRunner runner(opt);
  std::vector<std::uint64_t> observed(32, 0);
  for (std::size_t i = 0; i < observed.size(); ++i) {
    runner.add("m" + std::to_string(i), [i, &observed]() {
      trace::MetricsRegistry::current().counter("test.events").add(i + 1);
      observed[i] = trace::MetricsRegistry::current()
                        .counter("test.events")
                        .value();
      return exp::ParallelRunner::Commit{};
    });
  }
  EXPECT_EQ(runner.run(), observed.size());
  for (std::size_t i = 0; i < observed.size(); ++i)
    EXPECT_EQ(observed[i], i + 1) << "point " << i;
}

// One small real sweep, executed through bench::Runner (the JsonSink
// integration) at a given job count. Returns {table text, ndjson bytes,
// raw measured values}.
struct SweepOutput {
  std::string table;
  std::string ndjson;
  std::vector<double> values;
  bool operator==(const SweepOutput& o) const {
    return table == o.table && ndjson == o.ndjson && values == o.values;
  }
};

SweepOutput run_sweep(int jobs, const std::string& json_path) {
  std::string jobs_flag = "--jobs=" + std::to_string(jobs);
  std::string json_flag = "--json=" + json_path;
  const char* argv[] = {"prog", jobs_flag.c_str(), json_flag.c_str()};
  bench::Runner runner(3, const_cast<char**>(argv));

  const std::uint64_t sizes[] = {4096, 16384, 65536};
  const core::MemType types[] = {core::MemType::kHost, core::MemType::kGpu};
  bench::Cell cells[3][2];
  for (std::size_t si = 0; si < 3; ++si) {
    for (std::size_t ti = 0; ti < 2; ++ti) {
      const std::uint64_t size = sizes[si];
      const core::MemType type = types[ti];
      runner.add(strf("sweep/t%zu/%s", ti, size_label(size).c_str()),
                 [&cells, si, ti, size, type] {
                   sim::Simulator sim;
                   auto c = cluster::Cluster::make_cluster_i(
                       sim, 1, core::ApenetParams{}, false);
                   double v =
                       cluster::loopback_bandwidth(*c, 0, type, size, 4).mbps;
                   cells[si][ti] = v;
                   bench::JsonSink::global().record(
                       "runner_test", strf("t%zu/%s", ti,
                                           size_label(size).c_str()),
                       v);
                 });
    }
  }
  EXPECT_EQ(runner.run(), 6u);
  bench::JsonSink::global().close();

  SweepOutput out;
  TextTable t({"Msg size", "H-H", "G-G"});
  for (std::size_t si = 0; si < 3; ++si) {
    t.add_row({size_label(sizes[si]), cells[si][0].str("%.3f"),
               cells[si][1].str("%.3f")});
    out.values.push_back(cells[si][0].v);
    out.values.push_back(cells[si][1].v);
  }
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  t.print(mem);
  std::fclose(mem);
  out.table.assign(buf, len);
  std::free(buf);
  out.ndjson = read_file(json_path);
  return out;
}

TEST(ParallelRunner, ByteIdenticalOutputAcrossJobCounts) {
  const std::string dir = testing::TempDir();
  SweepOutput j1 = run_sweep(1, dir + "runner_j1.ndjson");
  SweepOutput j4 = run_sweep(4, dir + "runner_j4.ndjson");
  EXPECT_FALSE(j1.ndjson.empty());
  EXPECT_EQ(j1.ndjson, j4.ndjson);
  EXPECT_EQ(j1.table, j4.table);
  EXPECT_EQ(j1.values, j4.values);  // exact simulated-timing equality
  EXPECT_EQ(j1, j4);
}

}  // namespace
