// Pins the parallel experiment runner's contract: byte-identical output at
// any job count, declaration-order commits (including the NDJSON and
// state-hash ordered files), per-point observability isolation, and the
// one strict bench flag parser.
#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "check/check.hpp"
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
  setenv("APN_BENCH_JSON", "env.ndjson", 1);
  {
    const char* argv[] = {"prog"};
    EXPECT_EQ(exp::RunnerOptions::from_args(1, const_cast<char**>(argv)).json,
              "env.ndjson");
    const char* flag[] = {"prog", "--json=flag.ndjson"};
    EXPECT_EQ(exp::RunnerOptions::from_args(2, const_cast<char**>(flag)).json,
              "flag.ndjson");
  }
  setenv("APN_BENCH_JSON", "", 1);  // empty counts as unset
  {
    const char* argv[] = {"prog"};
    auto o = exp::RunnerOptions::from_args(1, const_cast<char**>(argv));
    EXPECT_TRUE(o.json.empty());
  }
  unsetenv("APN_BENCH_JSON");
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

TEST(RunnerOptions, RejectsUnknownArguments) {
  // Typos, stray words, a switch given a value or a value flag given none.
  for (const char* arg :
       {"--job=2", "--hw-profle=gen3", "--jsn=x", "--chek", "stray",
        "--jobs", "--list=1", "--json=", "--state-hash-out="}) {
    SCOPED_TRACE(arg);
    const char* argv[] = {"prog", arg};
    try {
      exp::RunnerOptions::from_args(2, const_cast<char**>(argv));
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const std::string flag(arg, std::strcspn(arg, "="));
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
}

TEST(RunnerOptions, AcceptsEveryTableFlag) {
  unsetenv("APN_JOBS");
  unsetenv("APN_HW_PROFILE");
  unsetenv("APN_BENCH_JSON");
  const char* argv[] = {"prog", "--jobs=3", "--filter=fig", "--list",
                        "--hw-profile=gen3", "--json=out.ndjson", "--check",
                        "--coro-check", "--state-hash-out=h.txt"};
  const auto o = exp::RunnerOptions::from_args(9, const_cast<char**>(argv));
  EXPECT_EQ(o.jobs, 3);
  EXPECT_EQ(o.filter, "fig");
  EXPECT_TRUE(o.list);
  EXPECT_EQ(o.hw_profile, "gen3");
  EXPECT_EQ(o.json, "out.ndjson");
  EXPECT_TRUE(o.check);
  EXPECT_TRUE(o.coro_check);
  EXPECT_EQ(o.state_hash_out, "h.txt");

  // An unknown argument's error lists the same table: exactly these flags.
  const char* typo[] = {"prog", "--jsn=x"};
  std::string listing;
  try {
    exp::RunnerOptions::from_args(2, const_cast<char**>(typo));
  } catch (const std::invalid_argument& e) {
    listing = e.what();
  }
  std::istringstream lines(listing);
  std::vector<std::string> listed;
  for (std::string line; std::getline(lines, line);) {
    std::istringstream words(line);
    std::string first;
    if (words >> first && first.rfind("--", 0) == 0) listed.push_back(first);
  }
  EXPECT_EQ(listed, (std::vector<std::string>{
                        "--jobs=", "--filter=", "--list", "--hw-profile=",
                        "--json=", "--check", "--coro-check",
                        "--state-hash-out="}));
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
      for (int k = 0; k < (16 - i) * 20000; ++k) x = x + k;
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
  std::string hashes;  ///< state-hash file with the h= values stripped
  std::vector<double> values;
  bool operator==(const SweepOutput& o) const {
    return table == o.table && ndjson == o.ndjson && hashes == o.hashes &&
           values == o.values;
  }
};

/// Drop the " h=<hash>" field from every state-hash line.
std::string strip_hash_values(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    out += line.substr(0, line.find(" h="));
    out += '\n';
  }
  return out;
}

/// Close both ordered files and disarm the race detector that
/// --state-hash-out= armed, so later tests in the process start clean.
void close_sinks() {
  bench::JsonSink::global().close();
  check::HashSink::global().close();
  check::Session::force_enable(false);
}

TEST(OrderedFile, RunnerCommitsBothFilesInDeclarationOrder) {
  const std::string dir = testing::TempDir();
  const std::string json_flag = "--json=" + dir + "ordered.ndjson";
  const std::string hash_flag = "--state-hash-out=" + dir + "ordered.hash";
  const char* argv[] = {"prog", "--jobs=4", json_flag.c_str(),
                        hash_flag.c_str()};
  bench::Runner runner(4, const_cast<char**>(argv));
  std::string want_json;
  std::string want_hash;
  for (int i = 0; i < 16; ++i) {
    const std::string name = "ordered/p" + std::to_string(i);
    const int lines = 1 + i % 3;
    want_hash += "# point " + name + "\n";
    for (int k = 0; k < lines; ++k) {
      want_json += strf("json p%d line %d\n", i, k);
      want_hash += strf("hash p%d line %d\n", i, k);
    }
    runner.add(name, [i, lines] {
      // Uneven work so completion order differs from declaration order.
      volatile double x = 0;
      for (int k = 0; k < (16 - i) * 20000; ++k) x = x + k;
      for (int k = 0; k < lines; ++k) {
        bench::JsonSink::global().emit(strf("json p%d line %d\n", i, k));
        check::HashSink::global().emit(strf("hash p%d line %d\n", i, k));
      }
    });
  }
  EXPECT_EQ(runner.run(), 16u);
  close_sinks();
  EXPECT_EQ(read_file(dir + "ordered.ndjson"), want_json);
  EXPECT_EQ(read_file(dir + "ordered.hash"), want_hash);
}

TEST(OrderedFile, ThrowingPointLeavesNoCaptureInstalled) {
  // At --jobs=1 the point runs on this thread, so a capture it leaked
  // would swallow (or, dangling, corrupt) the direct emits below.
  const std::string dir = testing::TempDir();
  const std::string json_flag = "--json=" + dir + "throw.ndjson";
  const std::string hash_flag = "--state-hash-out=" + dir + "throw.hash";
  const char* argv[] = {"prog", "--jobs=1", json_flag.c_str(),
                        hash_flag.c_str()};
  bench::Runner runner(4, const_cast<char**>(argv));
  runner.add("throws", [] {
    bench::JsonSink::global().emit("captured\n");
    check::HashSink::global().emit("captured\n");
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(runner.run(), std::runtime_error);
  bench::JsonSink::global().emit("direct\n");
  check::HashSink::global().emit("direct\n");
  close_sinks();
  // The failed point's buffered text is dropped with its commit.
  EXPECT_EQ(read_file(dir + "throw.ndjson"), "direct\n");
  EXPECT_EQ(read_file(dir + "throw.hash"), "direct\n");
}

SweepOutput run_sweep(int jobs, const std::string& json_path,
                      const std::string& hash_path) {
  std::string jobs_flag = "--jobs=" + std::to_string(jobs);
  std::string json_flag = "--json=" + json_path;
  std::string hash_flag = "--state-hash-out=" + hash_path;
  const char* argv[] = {"prog", jobs_flag.c_str(), json_flag.c_str(),
                        hash_flag.c_str()};
  bench::Runner runner(4, const_cast<char**>(argv));

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
  close_sinks();

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
  out.hashes = strip_hash_values(read_file(hash_path));
  return out;
}

TEST(ParallelRunner, ByteIdenticalOutputAcrossJobCounts) {
  const std::string dir = testing::TempDir();
  SweepOutput j1 =
      run_sweep(1, dir + "runner_j1.ndjson", dir + "runner_j1.hash");
  SweepOutput j4 =
      run_sweep(4, dir + "runner_j4.ndjson", dir + "runner_j4.hash");
  EXPECT_FALSE(j1.ndjson.empty());
  EXPECT_EQ(j1.ndjson, j4.ndjson);
  // Same `# point` headers in declaration order and the same
  // `e <seq> t=<time>` events; the h= values are heap-layout dependent.
  EXPECT_EQ(std::count(j1.hashes.begin(), j1.hashes.end(), '#'), 6);
  EXPECT_GT(std::count(j1.hashes.begin(), j1.hashes.end(), '\n'), 6);
  EXPECT_EQ(j1.hashes, j4.hashes);
  EXPECT_EQ(j1.table, j4.table);
  EXPECT_EQ(j1.values, j4.values);  // exact simulated-timing equality
  EXPECT_EQ(j1, j4);
}

}  // namespace
