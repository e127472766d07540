// apn-lint: the repo's custom static-analysis pass.
//
// Part of the simulator's determinism contract cannot be expressed in the
// type system: nothing stops a model file from iterating a pointer-keyed
// map into a timing decision, or detaching a capturing coroutine lambda
// whose frame outlives its captures. Each of those compiles, works on one
// machine, and breaks bit-exact reproduction (or worse, memory) somewhere
// else. What the toolchain can see is left to it (docs/CORRECTNESS.md,
// "Guards enforced by the toolchain"): host clocks, platform entropy and
// std::function in model objects are caught by the SymbolGuard ctest,
// discarded sim awaiters by [[nodiscard]] and -Werror=unused-result, and
// hot-path allocation by test_alloc's exact counts.
//
// v2 architecture: instead of scanning a flat token stream, the linter
// micro-parses each file into a lightweight IR — comment/string-stripped
// text, a statement index, and a scope tree of namespaces, classes (with
// member declarations) and function bodies (with local declarations, call
// expressions and co_await sites). No LLVM / libclang dependency, so it
// runs in every CI container. Rules see the IR, which lets them reason
// about flow ("is this local read after a suspension?") instead of
// just tokens.
//
// Rule catalogue:
//  * ptr-key-iter     — iterating a pointer-keyed map/set. Pointer order is
//                       ASLR-dependent; iteration feeding any model decision
//                       makes runs irreproducible. Pointer-keyed lookup is
//                       fine.
//  * detached-coro    — a *capturing* lambda returning a coroutine type.
//                       The lambda temporary dies at the call, the coroutine
//                       frame keeps running: captures dangle. The repo idiom
//                       is an empty capture list with everything passed as
//                       parameters (parameters are copied into the frame).
//                       v4: detected from the IR (lambda scope + declared or
//                       trailing return type), so template lambdas and
//                       multi-line signatures are covered too.
//  * coro-ref-param   — a coroutine takes a parameter by reference and reads
//                       it after a suspension point. Between the first
//                       co_await and resume the caller's frame may be gone;
//                       only the coroutine's own frame (value parameters) is
//                       guaranteed alive. Pointer parameters are the repo's
//                       sanctioned spelling for caller-managed lifetime and
//                       are not flagged. Uses inside the suspension's own
//                       statement are fine (the caller is still live at the
//                       moment of the first suspend).
//  * coro-local-escape— inside a coroutine body, the address of a frame
//                       local escapes into a scheduling/messaging sink
//                       (Simulator::at/after, Channel::send, Resource::post,
//                       schedule_resume/resume_at/resume_after), into a
//                       by-reference lambda capture passed to such a sink,
//                       or into another spawned coroutine. The stored
//                       callable or spawned frame can run after this frame
//                       advanced past the local's scope or died.
//  * coro-stale-time  — a value cached from Simulator::now() or a StateCell
//                       read (get/sample/peek) before a co_await is reused
//                       after the resume. Simulated time and cell state
//                       advance across suspensions; the cached copy is
//                       stale. Statements that re-read the clock (elapsed-
//                       time math `sim.now() - start`) or re-touch the same
//                       cell are exempt.
//  * unit-mix         — additive arithmetic mixing an apn::Time variable
//                       with a byte-count variable (apn::Bytes or a
//                       *_bytes/bytes_* local) or with a bare unscaled
//                       integer literal. Time is picoseconds; mixing it
//                       with byte counts or raw literals is always a unit
//                       bug. Exempt in src/common/units.hpp, which defines
//                       the conversions.
//  * check-coverage   — a class that participates in race detection (has at
//                       least one StateCell member or APN_CHECK_ACCESS-
//                       instrumented member) declares a mutable state-like
//                       member (integral/container) that is never
//                       instrumented anywhere in the project.
//  * calibration-literal — a units helper (units::ns(400), units::us(1.5),
//                       Gbps, MBps, ...) or Rate constructor called with a
//                       raw numeric literal inside a function body in model
//                       code (src/core, src/pcie, src/gpu). Calibration
//                       constants must be named fields of the hardware-
//                       profile structs (core/params.hpp, gpu/arch.hpp,
//                       pcie/link.hpp) so src/hw/profile.cpp can version
//                       them per hardware generation and docs/HARDWARE.md
//                       can document them. Those three headers are exempt —
//                       they are where the named defaults live.
//
// Suppression: a comment `// apn-lint: allow(<rule>[, <rule>...])` (rules
// separated by commas and/or spaces) on the offending line, the line
// directly above it, or — for findings inside a multi-line statement — the
// first line of that statement or the line above it. The three coroutine
// suspension-safety rules (coro-ref-param, coro-local-escape,
// coro-stale-time) skip tests/ paths — test code parks frames and threads
// pointers on purpose, and the runtime frame oracle
// (src/check/coro_check.hpp, --coro-check) covers it dynamically.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace apn::lint {

struct Finding {
  std::string path;
  int line = 0;        ///< 1-based
  int col = 0;         ///< 1-based UTF-16 column (SARIF); 0 = unknown
  int end_col = 0;     ///< one past the flagged token; 0 = unknown
  std::string rule;    ///< rule slug, e.g. "unit-mix"
  std::string detail;  ///< human-oriented description of the hit
};

// ---------------------------------------------------------------------------
// Flow-aware IR (micro-parse; see lint.cpp for the grammar subset)
// ---------------------------------------------------------------------------

/// A declaration site: `Type name ...` (class member or function local).
struct Decl {
  std::string type_text;  ///< declaration text left of the name, normalized
  std::string name;
  int line = 0;
};

/// A call expression `callee(...)` inside a function body.
struct Call {
  std::string callee;        ///< unqualified callee identifier
  std::size_t off = 0;       ///< offset of the callee in the stripped text
  std::size_t close = 0;     ///< offset of the matching ')'
  bool member_access = false;  ///< preceded by '.' or '->'
  int line = 0;
};

/// One parsed function body.
struct FunctionIR {
  std::string name;       ///< unqualified function name ("" for lambdas)
  std::string decl_text;  ///< declaration text before the name (return type,
                          ///< specifiers)
  bool is_lambda = false;      ///< body belongs to a lambda expression
  bool returns_coro = false;   ///< declared/trailing return type names Coro
  int line = 0;
  std::size_t body_begin = 0;  ///< offset of '{'
  std::size_t body_end = 0;    ///< offset of matching '}'
  /// Lambda capture-list brackets ('[' and ']' offsets); npos when not a
  /// lambda or the capture list could not be located.
  std::size_t cap_open = static_cast<std::size_t>(-1);
  std::size_t cap_close = static_cast<std::size_t>(-1);
  std::vector<Decl> params;    ///< parameter declarations only
  std::vector<Decl> locals;    ///< parameter + local variable declarations
  std::vector<Call> calls;
  std::vector<std::size_t> co_awaits;  ///< offsets of co_await tokens
};

/// One parsed class/struct body.
struct ClassIR {
  std::string name;
  int line = 0;
  std::size_t body_begin = 0;  ///< offset of '{'
  std::size_t body_end = 0;    ///< offset of matching '}'
  std::vector<Decl> members;   ///< data members (functions excluded)
};

/// Per-file parse result. `text` is the comment/string-stripped source
/// (stripped bytes become spaces, so offsets and lines match the original);
/// `raw` is the untouched original (string contents, multibyte characters)
/// for SARIF UTF-16 columns.
struct FileIR {
  std::string path;
  std::string text;
  std::string raw;
  std::vector<FunctionIR> functions;
  std::vector<ClassIR> classes;

  int line_of(std::size_t off) const;
  /// First line of the statement containing `off` (for suppressions that
  /// sit above a statement spanning multiple lines).
  int stmt_line_of(std::size_t off) const;
  bool allowed(int line, int stmt_line, const std::string& rule) const;

  // Internal indexes (populated by parse()).
  std::vector<std::size_t> line_starts;
  std::vector<std::size_t> stmt_starts;
  std::set<std::pair<int, std::string>> allows;
};

/// Micro-parse one translation unit into the IR.
FileIR parse(const std::string& path, const std::string& source);

// ---------------------------------------------------------------------------
// Two-phase project analysis
// ---------------------------------------------------------------------------

/// Cross-file facts collected in phase 1 and consulted by the flow rules in
/// phase 2. Single-file linting with a default-constructed context is
/// supported: check-coverage falls back to facts visible in the one file.
struct ProjectContext {
  /// Member names instrumented with no derivable owner (APN_CHECK_ACCESS on
  /// a foreign struct's field like `a.arrived`, or calls in free functions):
  /// these match a member of *any* class.
  std::set<std::string> instrumented;
  /// "Class::member" entries where the owning class is known — a bare-name
  /// APN_CHECK_ACCESS inside a `Class::method` definition or an inline
  /// method body, or a StateCell<...> member declaration. Scoping keeps one
  /// class's instrumented `next_seq_` from whitelisting (or race-qualifying)
  /// every other class with a member of the same name.
  std::set<std::string> instrumented_scoped;
  /// Classes (by name) known to participate in race detection.
  std::set<std::string> instrumented_classes;
  /// Named functions whose return type is a coroutine (sim::Coro). Their
  /// call sites spawn detached frames, so coro-local-escape treats an
  /// address-of-local argument as an escape.
  std::set<std::string> coro_fns;
  /// Member names declared with a StateCell type anywhere in the project.
  /// coro-stale-time treats get()/sample()/peek() on these as time-like
  /// reads that go stale across a suspension.
  std::set<std::string> statecell_members;
};

/// Phase 1: harvest declarations from one file into `ctx`.
void scan_declarations(const FileIR& ir, ProjectContext& ctx);

/// Phase 2: run all rules over one parsed file.
std::vector<Finding> lint_ir(const FileIR& ir, const ProjectContext& ctx);

/// Convenience: parse + lint one source buffer with a local context (single
/// file scanned in both phases). `path` scopes the directory-sensitive
/// rules and is echoed into findings; it does not need to exist on disk.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& source);

/// Full two-phase project run over `files` (already expanded and sorted by
/// the caller): every file is parsed and harvested into one ProjectContext,
/// then linted, both in file order. Returns false (with the offending path
/// in `bad_path`) when a file cannot be read.
bool run_project(const std::vector<std::string>& files,
                 std::vector<Finding>& out, std::string* bad_path);

/// Read a file into `out`; false on I/O error.
bool read_file(const std::string& path, std::string& out);

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

/// One registered rule: its slug and the one-liner used in SARIF metadata.
struct RuleInfo {
  const char* id;
  const char* summary;  ///< one line (SARIF shortDescription)
};

/// Every registered rule, in catalogue order.
const std::vector<RuleInfo>& rules();

// ---------------------------------------------------------------------------
// SARIF 2.1.0 output (for GitHub code scanning upload)
// ---------------------------------------------------------------------------

/// Serialize findings as a minimal SARIF 2.1.0 log (one run, one result per
/// finding, rule metadata included).
std::string format_sarif(const std::vector<Finding>& findings);

}  // namespace apn::lint
