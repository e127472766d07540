// Tests for apn-lint (tools/apn-lint): every rule, the suppression
// syntax, the project driver and SARIF output. Sources are fed as strings
// via lint_source, with the path choosing the directory-scoped behavior.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using apn::lint::Finding;
using apn::lint::lint_source;

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> out;
  for (const Finding& f : fs) out.push_back(f.rule);
  return out;
}

// ---- wall-clock ------------------------------------------------------------

TEST(LintWallClock, FlagsChronoClocksAndCApis) {
  auto f = lint_source("src/core/x.cpp",
                       "auto t = std::chrono::steady_clock::now();\n"
                       "struct timeval tv; gettimeofday(&tv, nullptr);\n");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "wall-clock");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[1].line, 2);
}

TEST(LintWallClock, FlagsBareAndQualifiedTimeCalls) {
  EXPECT_EQ(lint_source("a.cpp", "time_t t = time(nullptr);\n").size(), 1u);
  EXPECT_EQ(lint_source("a.cpp", "auto t = std::time(nullptr);\n").size(),
            1u);
  EXPECT_EQ(lint_source("a.cpp", "auto t = ::time(nullptr);\n").size(), 1u);
}

TEST(LintWallClock, IgnoresMembersAndOtherNamespaces) {
  // Member calls and non-std qualifiers are someone else's time().
  EXPECT_TRUE(lint_source("a.cpp", "auto t = sim.time();\n").empty());
  EXPECT_TRUE(lint_source("a.cpp", "auto t = obj->time();\n").empty());
  EXPECT_TRUE(lint_source("a.cpp", "auto t = mysim::time(x);\n").empty());
  // The word in other contexts (declarations, members) is fine too.
  EXPECT_TRUE(lint_source("a.cpp", "Time rx_task_time = 0;\n").empty());
}

TEST(LintWallClock, CommentsAndStringsAreNotCode) {
  EXPECT_TRUE(lint_source("a.cpp",
                          "// calls gettimeofday() on real hardware\n"
                          "const char* s = \"gettimeofday\";\n")
                  .empty());
}

// ---- raw-rand --------------------------------------------------------------

TEST(LintRawRand, FlagsCAndStdEngines) {
  auto f = lint_source("src/apps/x.cpp",
                       "int a = rand();\n"
                       "std::mt19937 gen(std::random_device{}());\n");
  auto rules = rules_of(f);
  ASSERT_EQ(f.size(), 3u);  // rand, mt19937, random_device
  for (const auto& r : rules) EXPECT_EQ(r, "raw-rand");
}

TEST(LintRawRand, RngModuleIsExempt) {
  EXPECT_TRUE(
      lint_source("src/common/rng.hpp", "int a = rand();\n").empty());
  EXPECT_TRUE(
      lint_source("src/common/rng_test_helper.cpp", "std::mt19937 g;\n")
          .empty());
}

// ---- std-function ----------------------------------------------------------

TEST(LintStdFunction, FlaggedOnlyInHotPaths) {
  const std::string src = "std::function<void()> cb;\n";
  EXPECT_EQ(lint_source("src/sim/x.hpp", src).size(), 1u);
  EXPECT_EQ(lint_source("src/core/x.cpp", src).size(), 1u);
  EXPECT_EQ(lint_source("src/pcie/x.hpp", src).size(), 1u);
  // Cold layers may still use it.
  EXPECT_TRUE(lint_source("src/apps/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/ib/hca.cpp", src).empty());
}

TEST(LintStdFunction, QualifiedSpellingOnly) {
  // A type merely named "function" is not std::function.
  EXPECT_TRUE(lint_source("src/sim/x.hpp", "my::function<void()> cb;\n")
                  .empty());
}

// ---- ptr-key-iter ----------------------------------------------------------

TEST(LintPtrKeyIter, FlagsRangeForOverPointerKeyedMap) {
  auto f = lint_source("src/x.cpp",
                       "std::map<Node*, int> weights;\n"
                       "for (auto& [n, w] : weights) total += w;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "ptr-key-iter");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintPtrKeyIter, FlagsExplicitBeginIteration) {
  auto f = lint_source("src/x.cpp",
                       "std::unordered_set<const void*> seen;\n"
                       "auto it = seen.begin();\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "ptr-key-iter");
}

TEST(LintPtrKeyIter, LookupOnlyUseIsClean) {
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "std::unordered_map<const void*, CellState> cells;\n"
                          "auto it = cells.find(p);\n"
                          "cells.erase(p);\n")
                  .empty());
}

TEST(LintPtrKeyIter, ValueOnlyPointersAreClean) {
  // Pointer *values* are fine; only pointer *keys* order the iteration.
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "std::map<std::uint64_t, Node*> nodes;\n"
                          "for (auto& [k, n] : nodes) n->tick();\n")
                  .empty());
}

// ---- detached-coro ---------------------------------------------------------

TEST(LintDetachedCoro, FlagsCapturingCoroutineLambda) {
  auto f = lint_source("src/x.cpp",
                       "[this, n]() -> sim::Coro { co_await g(n); }();\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "detached-coro");
}

TEST(LintDetachedCoro, FlagsDefaultCaptures) {
  EXPECT_EQ(
      lint_source("src/x.cpp", "[&](int n) -> Coro { co_return; }(4);\n")
          .size(),
      1u);
  EXPECT_EQ(
      lint_source("src/x.cpp", "[=]() -> Coro { co_return; }();\n").size(),
      1u);
}

TEST(LintDetachedCoro, EmptyCaptureWithParametersIsTheIdiom) {
  // The repo's safe pattern: state enters the frame as parameters.
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "[](Card* self, int n) -> sim::Coro {\n"
                          "  co_await self->g(n);\n"
                          "}(this, 4);\n")
                  .empty());
}

TEST(LintDetachedCoro, NonCoroCapturingLambdaIsClean) {
  EXPECT_TRUE(
      lint_source("src/x.cpp", "auto f = [this]() -> int { return 1; };\n")
          .empty());
}

// ---- dropped-awaitable -----------------------------------------------------

TEST(LintDroppedAwaitable, BareAwaiterCallIsFlagged) {
  auto f = lint_source("src/core/x.cpp",
                       "sim::Coro run(Gate& g) {\n"
                       "  g.wait();\n"
                       "  co_return;\n"
                       "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "dropped-awaitable");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintDroppedAwaitable, ConsumedOrBoundResultsAreClean) {
  // Pointer parameters: references read after the first co_await would
  // (correctly) fire coro-ref-param, which is not under test here.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "sim::Coro run(Gate* g, Semaphore* s) {\n"
                          "  co_await g->wait();\n"
                          "  auto tok = s->acquire();\n"
                          "  co_await tok;\n"
                          "}\n")
                  .empty());
}

TEST(LintDroppedAwaitable, CoroCallsAreFireAndForget) {
  // sim::Coro starts eagerly and owns its frame: a bare call is the
  // repo's spawn idiom, not a dropped wait.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "sim::Coro pump() { co_return; }\n"
                          "void kick() { pump(); }\n")
                  .empty());
}

TEST(LintDroppedAwaitable, HarvestsDeclaredAwaiterReturnTypes) {
  auto f = lint_source("src/core/x.cpp",
                       "TickAwaiter next_tick() { return TickAwaiter{}; }\n"
                       "sim::Coro run() {\n"
                       "  next_tick();\n"
                       "  co_return;\n"
                       "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "dropped-awaitable");
  EXPECT_EQ(f[0].line, 3);
}

// ---- coroutine suspension safety -------------------------------------------

TEST(LintCoroRefParam, RefReadAfterSuspensionFlagged) {
  auto f = lint_source("src/cluster/x.cpp",
                       "sim::Coro run(Gate& g, Queue<int>& q) {\n"
                       "  co_await g.wait();\n"
                       "  q.push(1);\n"
                       "  co_return;\n"
                       "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coro-ref-param");
  EXPECT_EQ(f[0].line, 3);
  EXPECT_NE(f[0].detail.find("'q'"), std::string::npos);
}

TEST(LintCoroRefParam, UseWithinFirstSuspensionStatementIsClean) {
  // The caller's arguments are still alive at the moment of first suspend:
  // a reference consumed entirely within that statement is fine.
  EXPECT_TRUE(lint_source("src/cluster/x.cpp",
                          "sim::Coro run(Gate& g) {\n"
                          "  co_await g.wait();\n"
                          "  co_return;\n"
                          "}\n")
                  .empty());
}

TEST(LintCoroRefParam, TestsTreeIsExempt) {
  // Test code routinely keeps coroutine arguments alive on the test stack
  // for the whole run; the suspension rules skip tests/ by design.
  EXPECT_TRUE(lint_source("tests/x.cpp",
                          "sim::Coro run(Gate& g, Queue<int>& q) {\n"
                          "  co_await g.wait();\n"
                          "  q.push(1);\n"
                          "  co_return;\n"
                          "}\n")
                  .empty());
}

TEST(LintCoroLocalEscape, AddressIntoSinkFlagged) {
  auto f = lint_source("src/cluster/x.cpp",
                       "sim::Coro run(sim::Simulator* sim, Gate* g) {\n"
                       "  int count = 0;\n"
                       "  sim->schedule_resume(h_, &count);\n"
                       "  co_await g->wait();\n"
                       "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coro-local-escape");
  EXPECT_EQ(f[0].line, 3);
  EXPECT_NE(f[0].detail.find("'count'"), std::string::npos);
}

TEST(LintCoroLocalEscape, BinaryAndIsNotAddressOf) {
  EXPECT_TRUE(lint_source("src/cluster/x.cpp",
                          "sim::Coro run(sim::Simulator* sim, Gate* g) {\n"
                          "  int b = 2;\n"
                          "  sim->after(delay_, cb_, flag_ && b);\n"
                          "  co_await g->wait();\n"
                          "}\n")
                  .empty());
}

TEST(LintCoroStaleTime, CachedNowReusedAfterResumeFlagged) {
  auto f = lint_source("src/cluster/x.cpp",
                       "sim::Coro run(sim::Simulator* sim, Gate* g) {\n"
                       "  Time start = sim->now();\n"
                       "  co_await g->wait();\n"
                       "  stamp(start);\n"
                       "  co_return;\n"
                       "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coro-stale-time");
  EXPECT_EQ(f[0].line, 4);
  EXPECT_NE(f[0].detail.find("'start'"), std::string::npos);
}

TEST(LintCoroStaleTime, ElapsedTimeMathIsExempt) {
  // `sim->now() - start` visibly re-reads the clock: the old timestamp is
  // the point, not a stale notion of "current time".
  EXPECT_TRUE(lint_source("src/cluster/x.cpp",
                          "sim::Coro run(sim::Simulator* sim, Gate* g) {\n"
                          "  Time start = sim->now();\n"
                          "  co_await g->wait();\n"
                          "  Time dt = sim->now() - start;\n"
                          "  co_return;\n"
                          "}\n")
                  .empty());
}

// ---- unit-mix --------------------------------------------------------------

TEST(LintUnitMix, TimePlusRawLiteralFlagged) {
  auto f = lint_source("src/core/x.cpp",
                       "Time deadline(Time start) { return start + 512; }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unit-mix");
}

TEST(LintUnitMix, TimePlusByteVariableFlagged) {
  auto f = lint_source("src/core/x.cpp",
                       "Time f(Time start) {\n"
                       "  long long hdr_bytes = 64;\n"
                       "  return start + hdr_bytes;\n"
                       "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unit-mix");
  EXPECT_EQ(f[0].line, 3);
}

// src/sim path: the units helpers with literal args here are deliberate
// (testing unit-mix, not calibration-literal, which is core/pcie/gpu-scoped).
TEST(LintUnitMix, ScaledLiteralsAndHelpersAreClean) {
  EXPECT_TRUE(lint_source("src/sim/x.cpp",
                          "Time f(Time start) {\n"
                          "  Time t = start + units::us(8);\n"
                          "  t += 6 * units::ns(250);\n"
                          "  return t + 0;\n"
                          "}\n")
                  .empty());
}

TEST(LintUnitMix, TimePlusTimeIsClean) {
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "Time f(Time a, Time b) { return a + b - a; }\n")
                  .empty());
}

// ---- check-coverage --------------------------------------------------------

TEST(LintCheckCoverage, UninstrumentedStateMemberFlagged) {
  auto f = lint_source("src/core/x.hpp",
                       "class Dev {\n"
                       "  check::StateCell<int> credits_;\n"
                       "  std::uint64_t tail_ = 0;\n"
                       "};\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "check-coverage");
  EXPECT_EQ(f[0].line, 3);
}

TEST(LintCheckCoverage, InstrumentedMemberIsCovered) {
  EXPECT_TRUE(lint_source("src/core/x.hpp",
                          "class Dev {\n"
                          "  void bump() { APN_CHECK_ACCESS(tail_, w); "
                          "tail_ += 1; }\n"
                          "  check::StateCell<int> credits_;\n"
                          "  std::uint64_t tail_ = 0;\n"
                          "};\n")
                  .empty());
}

TEST(LintCheckCoverage, OnlyHeadersUnderSrcAreScanned) {
  const std::string src =
      "class Dev {\n"
      "  check::StateCell<int> c_;\n"
      "  int tail_ = 0;\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());  // not a header
  EXPECT_TRUE(lint_source("tests/x.hpp", src).empty());     // not model code
}

TEST(LintCheckCoverage, UninstrumentedClassesAreOutOfScope) {
  // A class with no race-detector participation owes no coverage.
  EXPECT_TRUE(lint_source("src/core/x.hpp",
                          "class Plain {\n"
                          "  int count_ = 0;\n"
                          "};\n")
                  .empty());
}

TEST(LintCheckCoverage, AllowCommentSuppresses) {
  EXPECT_TRUE(lint_source("src/core/x.hpp",
                          "class Dev {\n"
                          "  check::StateCell<int> c_;\n"
                          "  // set once.  apn-lint: allow(check-coverage)\n"
                          "  int tail_ = 0;\n"
                          "};\n")
                  .empty());
}

// ---- hot-path-alloc --------------------------------------------------------

TEST(LintHotPathAlloc, AllocationInHotFunctionFlagged) {
  auto f = lint_source("src/sim/x.hpp",
                       "APN_HOT void push() {\n"
                       "  Node* m = new Node();\n"
                       "  void* p = malloc(16);\n"
                       "}\n");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "hot-path-alloc");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(f[1].rule, "hot-path-alloc");
  EXPECT_EQ(f[1].line, 3);
}

TEST(LintHotPathAlloc, PlacementNewAndColdFunctionsAreClean) {
  EXPECT_TRUE(
      lint_source("src/sim/x.hpp",
                  "APN_HOT void push(void* slab) { new (slab) Node(); }\n"
                  "Node* grow() { return new Node(); }\n")
          .empty());
}

// ---- suppressions ----------------------------------------------------------

TEST(LintSuppress, SameLineAndLineAbove) {
  EXPECT_TRUE(lint_source("src/sim/x.hpp",
                          "std::function<void()> cb;  "
                          "// apn-lint: allow(std-function)\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/sim/x.hpp",
                          "// apn-lint: allow(std-function)\n"
                          "std::function<void()> cb;\n")
                  .empty());
}

TEST(LintSuppress, MultipleRulesInOneComment) {
  EXPECT_TRUE(lint_source("src/sim/x.hpp",
                          "// apn-lint: allow(std-function, wall-clock)\n"
                          "std::function<Time()> cb = [] { return "
                          "std::time(nullptr); };\n")
                  .empty());
}

TEST(LintSuppress, WrongRuleDoesNotSuppress) {
  EXPECT_EQ(lint_source("src/sim/x.hpp",
                        "// apn-lint: allow(wall-clock)\n"
                        "std::function<void()> cb;\n")
                .size(),
            1u);
}

TEST(LintSuppress, DoesNotLeakPastTheNextLine) {
  EXPECT_EQ(lint_source("src/sim/x.hpp",
                        "// apn-lint: allow(std-function)\n"
                        "int unrelated;\n"
                        "std::function<void()> cb;\n")
                .size(),
            1u);
}

TEST(LintSuppress, RulesSeparatedBySpacesOnly) {
  // The contract allows commas AND/OR spaces between rule names.
  EXPECT_TRUE(lint_source("src/sim/x.hpp",
                          "// apn-lint: allow(std-function wall-clock)\n"
                          "std::function<Time()> cb = [] { return "
                          "std::time(nullptr); };\n")
                  .empty());
}

TEST(LintSuppress, MixedCommaAndSpaceSeparators) {
  EXPECT_TRUE(lint_source("src/sim/x.hpp",
                          "// apn-lint: allow(std-function,  wall-clock "
                          "raw-rand)\n"
                          "std::function<int()> cb = [] { return rand(); };\n")
                  .empty());
}

TEST(LintSuppress, AboveMultiLineStatement) {
  // The finding sits on line 4, but its statement starts on line 2; an
  // allow above the statement's first line covers the whole statement.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "// apn-lint: allow(wall-clock)\n"
                          "auto t =\n"
                          "    wrap(\n"
                          "        std::time(nullptr));\n")
                  .empty());
}

TEST(LintSuppress, OnFirstLineOfMultiLineStatement) {
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "auto t =  // apn-lint: allow(wall-clock)\n"
                          "    wrap(\n"
                          "        std::time(nullptr));\n")
                  .empty());
}

// ---- fixture corpus --------------------------------------------------------

#ifndef APN_LINT_FIXTURE_DIR
#define APN_LINT_FIXTURE_DIR "tests/lint_fixtures"
#endif

struct FixtureCase {
  const char* rule;      // expected rule slug
  const char* stem;      // fixture file stem: <stem>_{pos,neg}.fixture
  const char* as_path;   // synthetic path for directory-scoped rules
};

// Without this, gtest prints the parameter as its raw bytes: three pointers
// whose values change with every run under ASLR, and gtest_discover_tests
// copies that text into the ctest name. Printing the rule slug keeps the
// discovered names the same from one build to the next.
void PrintTo(const FixtureCase& c, std::ostream* os) { *os << c.rule; }

class LintFixtures : public ::testing::TestWithParam<FixtureCase> {
 protected:
  static std::vector<Finding> lint_fixture(const std::string& file,
                                           const std::string& as_path) {
    const std::string full =
        std::string(APN_LINT_FIXTURE_DIR) + "/" + file;
    std::string src;
    EXPECT_TRUE(apn::lint::read_file(full, src))
        << "cannot read fixture " << full;
    return lint_source(as_path, src);
  }
};

TEST_P(LintFixtures, PositiveFires) {
  const FixtureCase& c = GetParam();
  auto f = lint_fixture(std::string(c.stem) + "_pos.fixture", c.as_path);
  ASSERT_FALSE(f.empty()) << c.stem << "_pos.fixture produced no findings";
  for (const Finding& hit : f)
    EXPECT_EQ(hit.rule, c.rule) << "unexpected cross-rule finding at line "
                                << hit.line << ": " << hit.detail;
}

TEST_P(LintFixtures, NegativeIsClean) {
  const FixtureCase& c = GetParam();
  auto f = lint_fixture(std::string(c.stem) + "_neg.fixture", c.as_path);
  for (const Finding& hit : f)
    ADD_FAILURE() << c.stem << "_neg.fixture line " << hit.line << " ["
                  << hit.rule << "] " << hit.detail;
}

// One positive/negative fixture pair per registered rule.
const FixtureCase kFixtureCases[] = {
    {"wall-clock", "wall_clock", "src/core/fixture.cpp"},
    {"raw-rand", "raw_rand", "src/core/fixture.cpp"},
    {"std-function", "std_function", "src/sim/fixture.hpp"},
    {"ptr-key-iter", "ptr_key_iter", "src/core/fixture.cpp"},
    {"detached-coro", "detached_coro", "src/core/fixture.cpp"},
    // src/sim paths below keep calibration-literal (core/pcie/gpu-scoped)
    // from cross-firing on these fixtures' units::us(1) calls.
    {"dropped-awaitable", "dropped_awaitable", "src/sim/fixture.cpp"},
    {"unit-mix", "unit_mix", "src/sim/fixture.cpp"},
    {"check-coverage", "check_coverage", "src/core/fixture.hpp"},
    {"hot-path-alloc", "hot_path_alloc", "src/sim/fixture.cpp"},
    {"calibration-literal", "calibration_literal", "src/core/fixture.cpp"},
    // src/cluster paths: in scope for the suspension-safety rules (which
    // skip only tests/) but outside the std-function and calibration-literal
    // directory scopes.
    {"coro-ref-param", "coro_ref_param", "src/cluster/fixture.cpp"},
    {"coro-local-escape", "coro_local_escape", "src/cluster/fixture.cpp"},
    {"coro-stale-time", "coro_stale_time", "src/cluster/fixture.cpp"},
};

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintFixtures, ::testing::ValuesIn(kFixtureCases),
    [](const ::testing::TestParamInfo<FixtureCase>& info) {
      std::string name;
      bool up = true;  // CamelCase the stem for readable test names
      for (char ch : std::string(info.param.stem)) {
        if (ch == '_') {
          up = true;
          continue;
        }
        name += up ? static_cast<char>(ch - 'a' + 'A') : ch;
        up = false;
      }
      return name;
    });

// ---- rule registry ---------------------------------------------------------

TEST(LintRules, EveryRuleHasFixturePair) {
  // A rule registered without a positive/negative fixture pair (or a
  // fixture case naming an unregistered rule) fails here.
  std::set<std::string> fixture_rules;
  for (const FixtureCase& c : kFixtureCases)
    EXPECT_TRUE(fixture_rules.insert(c.rule).second)
        << "duplicate fixture case for " << c.rule;
  std::set<std::string> registered;
  for (const apn::lint::RuleInfo& r : apn::lint::rules())
    EXPECT_TRUE(registered.insert(r.id).second) << "duplicate rule " << r.id;
  EXPECT_EQ(fixture_rules, registered);
}

// ---- project driver --------------------------------------------------------

TEST(LintRunProject, MissingFileReportsPath) {
  std::vector<Finding> out;
  std::string bad;
  EXPECT_FALSE(apn::lint::run_project({"/nonexistent/x.cpp"}, out, &bad));
  EXPECT_EQ(bad, "/nonexistent/x.cpp");
}

// ---- SARIF output ----------------------------------------------------------

TEST(LintSarif, WellFormedWithFindings) {
  std::vector<Finding> fs = {
      {"src/a.cpp", 3, 0, 0, "wall-clock", "say \"hi\""},
  };
  const std::string s = apn::lint::format_sarif(fs);
  EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(s.find("\"apn-lint\""), std::string::npos);
  EXPECT_NE(s.find("\"ruleId\": \"wall-clock\""), std::string::npos);
  EXPECT_NE(s.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(s.find("say \\\"hi\\\""), std::string::npos);  // escaping
}

TEST(LintSarif, EmptyRunStillHasToolMetadata) {
  const std::string s = apn::lint::format_sarif({});
  EXPECT_NE(s.find("\"results\": ["), std::string::npos);
  EXPECT_EQ(s.find("ruleId"), std::string::npos);          // no results
  EXPECT_NE(s.find("check-coverage"), std::string::npos);  // rule catalogue
  EXPECT_NE(s.find("coro-stale-time"), std::string::npos);
}

TEST(LintSarif, ColumnsAreOneBasedUtf16) {
  // Two-byte 'π' in a comment before the flagged token: a byte count would
  // say column 18, but SARIF 2.1.0 wants UTF-16 code units, where the
  // whole character is one unit.
  auto f = lint_source("src/core/x.cpp", "/* \xcf\x80 */ int a = rand();\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "raw-rand");
  EXPECT_EQ(f[0].col, 17);
  EXPECT_EQ(f[0].end_col, 21);  // one past "rand"
  const std::string s = apn::lint::format_sarif(f);
  EXPECT_NE(s.find("\"startColumn\": 17"), std::string::npos);
  EXPECT_NE(s.find("\"endColumn\": 21"), std::string::npos);
}

TEST(LintSarif, AstralPlaneCharactersCountTwoUnits) {
  // U+1F600 (4-byte UTF-8) is a surrogate pair: two UTF-16 code units.
  auto f = lint_source("src/core/x.cpp",
                       "/* \xf0\x9f\x98\x80 */ int a = rand();\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].col, 18);  // 16 ASCII chars + 2 units for the emoji
}

TEST(LintSarif, LineOnlyFindingsOmitColumns) {
  std::vector<Finding> fs = {{"src/a.hpp", 4, 0, 0, "check-coverage", "x"}};
  const std::string s = apn::lint::format_sarif(fs);
  EXPECT_NE(s.find("\"startLine\": 4"), std::string::npos);
  EXPECT_EQ(s.find("startColumn"), std::string::npos);
}

}  // namespace
