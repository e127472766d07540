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

// ---- suppressions ----------------------------------------------------------

// One unit-mix finding (src/sim keeps calibration-literal out of scope).
const std::string kUnitMixLine = "Time f(Time start) { return start + 512; }\n";
// Under src/core: one unit-mix and one calibration-literal finding.
const std::string kTwoRuleLine =
    "Time f(Time start) { return start + 512 + units::ns(400); }\n";

TEST(LintSuppress, SameLineAndLineAbove) {
  EXPECT_TRUE(lint_source("src/sim/x.cpp",
                          "Time f(Time start) { return start + 512; }  "
                          "// apn-lint: allow(unit-mix)\n")
                  .empty());
  EXPECT_TRUE(
      lint_source("src/sim/x.cpp", "// apn-lint: allow(unit-mix)\n" + kUnitMixLine)
          .empty());
}

TEST(LintSuppress, MultipleRulesInOneComment) {
  EXPECT_EQ(lint_source("src/core/x.cpp", kTwoRuleLine).size(), 2u);
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "// apn-lint: allow(unit-mix, calibration-literal)\n" +
                              kTwoRuleLine)
                  .empty());
}

TEST(LintSuppress, WrongRuleDoesNotSuppress) {
  EXPECT_EQ(lint_source("src/sim/x.cpp",
                        "// apn-lint: allow(calibration-literal)\n" +
                            kUnitMixLine)
                .size(),
            1u);
}

TEST(LintSuppress, DoesNotLeakPastTheNextLine) {
  EXPECT_EQ(lint_source("src/sim/x.cpp",
                        "// apn-lint: allow(unit-mix)\n"
                        "int unrelated;\n" +
                            kUnitMixLine)
                .size(),
            1u);
}

TEST(LintSuppress, RulesSeparatedBySpacesOnly) {
  // The contract allows commas AND/OR spaces between rule names.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "// apn-lint: allow(unit-mix calibration-literal)\n" +
                              kTwoRuleLine)
                  .empty());
}

TEST(LintSuppress, MixedCommaAndSpaceSeparators) {
  const std::string map = "std::map<Node*, int> w;\n";
  const std::string line =
      "void f(Time t) { for (auto& [n, x] : w) t = t + 512 + units::ns(4); }\n";
  EXPECT_EQ(lint_source("src/core/x.cpp", map + line).size(), 3u);
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          map +
                              "// apn-lint: allow(ptr-key-iter,  unit-mix "
                              "calibration-literal)\n" +
                              line)
                  .empty());
}

TEST(LintSuppress, AboveMultiLineStatement) {
  // The finding sits on line 5, but its statement starts on line 3; an
  // allow above the statement's first line covers the whole statement.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "void f() {\n"
                          "  // apn-lint: allow(calibration-literal)\n"
                          "  Time t =\n"
                          "      wrap(\n"
                          "          units::ns(400));\n"
                          "}\n")
                  .empty());
}

TEST(LintSuppress, OnFirstLineOfMultiLineStatement) {
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "void f() {\n"
                          "  Time t =  // apn-lint: allow(calibration-literal)\n"
                          "      wrap(\n"
                          "          units::ns(400));\n"
                          "}\n")
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
    {"ptr-key-iter", "ptr_key_iter", "src/core/fixture.cpp"},
    {"detached-coro", "detached_coro", "src/core/fixture.cpp"},
    // A src/sim path keeps calibration-literal (core/pcie/gpu-scoped)
    // from cross-firing on the fixture's units::us(1) calls.
    {"unit-mix", "unit_mix", "src/sim/fixture.cpp"},
    {"check-coverage", "check_coverage", "src/core/fixture.hpp"},
    {"calibration-literal", "calibration_literal", "src/core/fixture.cpp"},
    // src/cluster paths: in scope for the suspension-safety rules (which
    // skip only tests/) but outside the calibration-literal
    // directory scope.
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
      {"src/a.cpp", 3, 0, 0, "unit-mix", "say \"hi\""},
  };
  const std::string s = apn::lint::format_sarif(fs);
  EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(s.find("\"apn-lint\""), std::string::npos);
  EXPECT_NE(s.find("\"ruleId\": \"unit-mix\""), std::string::npos);
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
  // say column 35, but SARIF 2.1.0 wants UTF-16 code units, where the
  // whole character is one unit.
  auto f = lint_source("src/core/x.cpp",
                       "/* \xcf\x80 */ Time f() { return units::ns(400); }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "calibration-literal");
  EXPECT_EQ(f[0].col, 34);
  EXPECT_EQ(f[0].end_col, 36);  // one past "ns"
  const std::string s = apn::lint::format_sarif(f);
  EXPECT_NE(s.find("\"startColumn\": 34"), std::string::npos);
  EXPECT_NE(s.find("\"endColumn\": 36"), std::string::npos);
}

TEST(LintSarif, AstralPlaneCharactersCountTwoUnits) {
  // U+1F600 (4-byte UTF-8) is a surrogate pair: two UTF-16 code units.
  auto f = lint_source("src/core/x.cpp",
                       "/* \xf0\x9f\x98\x80 */ Time f() { return units::ns(400); }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].col, 35);  // 32 ASCII chars + 2 units for the emoji
}

TEST(LintSarif, LineOnlyFindingsOmitColumns) {
  std::vector<Finding> fs = {{"src/a.hpp", 4, 0, 0, "check-coverage", "x"}};
  const std::string s = apn::lint::format_sarif(fs);
  EXPECT_NE(s.find("\"startLine\": 4"), std::string::npos);
  EXPECT_EQ(s.find("startColumn"), std::string::npos);
}

}  // namespace
