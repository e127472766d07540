// Simulation race detector: checked determinism for the model layers.
//
// The simulator's (time, seq) total order makes every run bit-exact — but
// it also *hides* fragility: two events firing at the same picosecond run
// in scheduling order, so model state touched by both is correct only by
// accident of that order. PR 3 found two such latent bugs by luck; this
// layer finds them by construction.
//
// Model: every piece of mutable model state is a *cell* (either a
// `StateCell<T>` wrapper or an `APN_CHECK_ACCESS(member, kind)` call at
// the access site). When checking is enabled, the Context — installed as
// the Simulator's EventHook — sees every event dispatch with its causal
// parent (the event that scheduled it) and flags any two same-timestamp
// events that touch the same cell with at least one write and no causal
// ancestry between them within the tick. Causally ordered accesses (A
// scheduled B, transitively) are fine: their order is fixed by the
// scheduling structure, not by seq-assignment accidents.
//
// Access kinds:
//  * kRead / kWrite — ordinary order-sensitive accesses.
//  * kAccum — commutative update (`counter += n`). Two accums commute, so
//    they never conflict with each other; they still conflict with reads
//    and plain writes in sibling events.
//  * kSample — deliberately order-tolerant read (e.g. an engine polling
//    "have enough bytes arrived yet?" where both orders are handled
//    correctly by a re-check protocol). Participates in nothing; each use
//    carries a comment justifying why.
//
// Rolling state hash: every write/accum folds (cell, value) into a
// per-run hash; events that wrote emit one `e <seq> t=<time> h=<hash>`
// line to the hash sink (`--state-hash-out=<path>` on benches and
// bus_analyzer). Diffing the files of two runs pinpoints the *first
// divergent event*, turning "the bandwidth differs in the 4th digit" into
// "event 1234 at t=56789 wrote something different".
//
// Enablement: APN_CHECK=1 in the environment (or `--check` on a bench)
// makes cluster::Cluster install a Session; a detected race prints full
// provenance and aborts. Tests use Mode::kRecord and inspect findings().
// When no session is installed the access hooks cost one thread-local
// load and a branch.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/ordered_file.hpp"
#include "sim/simulator.hpp"

namespace apn::check {

enum class Access : std::uint8_t { kRead, kWrite, kAccum, kSample };

const char* access_name(Access a);

/// One detected same-tick ordering hazard.
struct Finding {
  std::string cell;     ///< cell name (APN_CHECK_ACCESS spelling)
  Time time = 0;   ///< the shared timestamp
  std::uint64_t seq_first = 0;   ///< earlier event (fired first)
  std::uint64_t seq_second = 0;  ///< later event (no ancestry to first)
  Access kind_first = Access::kRead;
  Access kind_second = Access::kRead;

  std::string message() const;
};

/// Deterministic 64-bit value digest for the rolling state hash: integral
/// values hash as themselves, containers as their size (contents may hold
/// pointers, which vary across runs), anything else as a constant. The
/// hash only needs to *diverge when the runs diverge*, not to be precise.
template <typename T>
std::uint64_t value_hash(const T& v) {
  if constexpr (std::is_integral_v<T>)
    return static_cast<std::uint64_t>(v);
  else if constexpr (std::is_enum_v<T>)
    return static_cast<std::uint64_t>(
        static_cast<std::underlying_type_t<T>>(v));
  else if constexpr (requires { v.size(); })
    return static_cast<std::uint64_t>(v.size());
  else
    return 0x5eed;
}

/// The recording/checking engine. Installed as the simulator's EventHook
/// and (via Session) as the thread-current context the access macros hit.
class Context final : public sim::EventHook {
 public:
  enum class Mode {
    kAbort,   ///< print provenance to stderr and abort on first finding
    kRecord,  ///< collect findings() for inspection (tests)
  };

  /// Receives one line per writing event for the state-hash stream.
  using HashLineFn = void (*)(void* user, std::uint64_t seq, Time time,
                              std::uint64_t hash);

  explicit Context(Mode mode = Mode::kAbort) : mode_(mode) {}

  /// Record one access to `cell` (identity pointer, stable within a run)
  /// named `name`. Called via APN_CHECK_ACCESS / StateCell, only when this
  /// context is current.
  void record(const void* cell, const char* name, Access kind,
              std::uint64_t vhash);

  // ---- sim::EventHook ----------------------------------------------------
  void on_event_begin(Time now, std::uint64_t seq,
                      std::uint64_t parent) override;
  void on_event_end() override;

  const std::vector<Finding>& findings() const { return findings_; }
  std::uint64_t rolling_hash() const { return hash_; }
  std::uint64_t cells_seen() const { return next_ordinal_; }
  std::uint64_t accesses_recorded() const { return accesses_; }

  void set_hash_line_fn(HashLineFn fn, void* user) {
    hash_fn_ = fn;
    hash_user_ = user;
  }

 private:
  struct CellState {
    std::uint32_t ordinal = 0;
    std::uint64_t name_hash = 0;
    const char* name = nullptr;
    Time tick = -1;  ///< tick the per-tick fields below belong to
    bool has_write = false;
    bool has_accum = false;
    std::uint64_t write_seq = 0;
    std::uint64_t accum_seq = 0;
    Access write_kind = Access::kWrite;
    std::vector<std::uint64_t> reader_seqs;  ///< distinct readers this tick
  };

  CellState& cell_state(const void* cell, const char* name);
  /// True when `a` is a causal ancestor of the current event within the
  /// current tick (every intermediate event also fired this tick).
  bool ancestor_of_current(std::uint64_t a) const;
  void conflict(const CellState& cs, std::uint64_t other_seq,
                Access other_kind, Access my_kind);
  void mix_write(const CellState& cs, Access kind, std::uint64_t vhash);

  Mode mode_;
  // Cell identity: pointer-keyed for lookup only (never iterated — order
  // would be ASLR-dependent). Ordinals are assigned in first-touch order,
  // which is deterministic while the runs agree — exactly what the
  // cross-run hash needs to pinpoint the first divergence.
  std::unordered_map<const void*, CellState> cells_;
  std::uint32_t next_ordinal_ = 0;

  // Current-tick dispatch state.
  Time cur_tick_ = -1;
  std::uint64_t cur_seq_ = 0;
  bool in_event_ = false;
  bool event_wrote_ = false;
  std::unordered_map<std::uint64_t, std::uint64_t> tick_parents_;

  std::uint64_t hash_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t accesses_ = 0;
  HashLineFn hash_fn_ = nullptr;
  void* hash_user_ = nullptr;
  std::vector<Finding> findings_;
};

namespace detail {
/// Set by Session; read through current(). Constant-initialized, so every
/// read is a plain thread-local load with no call.
inline thread_local Context* current_ctx = nullptr;
}  // namespace detail

/// The thread's active checking context; nullptr when checking is off.
inline Context* current() { return detail::current_ctx; }

/// Ordered file of state-hash lines (`--state-hash-out=`): bench::Runner
/// captures each point's lines and commits them in declaration order, so
/// the file is byte-identical at any --jobs level and diffable across runs.
class HashSink : public OrderedFile<HashSink> {
 public:
  /// Emit one state-hash line.
  void line(std::uint64_t seq, Time time, std::uint64_t hash);
  /// Emit a comment line (point headers: "# point <name>").
  void note(const std::string& text);

 private:
  friend OrderedFile<HashSink>;
  HashSink() = default;
};

/// Apply the parsed `--check`, `--coro-check` and `--state-hash-out=`
/// flags (an empty path means none): open the hash file, throwing
/// std::invalid_argument if it cannot be created, then arm the race
/// detector (either flag) and the coroutine oracle with its exit report.
void apply_flags(bool race_check, bool coro_check,
                 const std::string& state_hash_out);

/// RAII enablement: installs a Context as the simulator's event hook and
/// as the thread-current context; restores both on destruction. One per
/// simulation (cluster::Cluster owns one when checking is enabled).
class Session {
 public:
  Session(sim::Simulator& sim, Context::Mode mode);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Context& context() { return ctx_; }

  /// True when APN_CHECK is set (nonempty, not "0") or force_enable(true)
  /// was called (the bench `--check` flag).
  static bool env_enabled();
  static void force_enable(bool on);

  /// Installed session in abort mode when enabled and the thread has no
  /// current context yet, nullptr otherwise (an outer Session wins).
  static std::unique_ptr<Session> from_env(sim::Simulator& sim);

 private:
  sim::Simulator* sim_;
  Context ctx_;
  sim::EventHook* prev_hook_;
  Context* prev_ctx_;
};

/// A named piece of mutable model state with access recording built in.
/// Reads/writes go through explicit methods so the access kind is visible
/// at the call site; `peek()` is the un-recorded escape hatch for
/// post-run statistics getters.
template <typename T>
class StateCell {
 public:
  explicit StateCell(const char* name, T v = T{}) : name_(name), v_(v) {}

  const T& get() const {
    touch(Access::kRead);
    return v_;
  }
  /// Order-tolerant read; see Access::kSample. Every call site carries a
  /// justification comment.
  const T& sample() const {
    touch(Access::kSample);
    return v_;
  }
  /// Un-recorded read for post-run statistics accessors.
  const T& peek() const { return v_; }

  void set(const T& v) {
    v_ = v;
    touch(Access::kWrite);
  }
  StateCell& operator=(const T& v) {
    set(v);
    return *this;
  }
  StateCell& operator+=(const T& d) {
    v_ += d;
    touch(Access::kAccum);
    return *this;
  }
  StateCell& operator++() {
    ++v_;
    touch(Access::kAccum);
    return *this;
  }

 private:
  void touch(Access a) const {
    if (Context* c = current())
      c->record(this, name_, a, value_hash(v_));
  }

  const char* name_;
  T v_;
};

}  // namespace apn::check

/// Record an access to a member that is not a StateCell (containers,
/// structs, in-place state): `APN_CHECK_ACCESS(rx_msgs_, kAccum)`. The
/// member's spelling becomes the cell name; its address its identity.
#define APN_CHECK_ACCESS(obj, rw)                                           \
  do {                                                                      \
    if (::apn::check::Context* apn_chk_c = ::apn::check::current())         \
      apn_chk_c->record(static_cast<const void*>(&(obj)), #obj,             \
                        ::apn::check::Access::rw,                           \
                        ::apn::check::value_hash(obj));                     \
  } while (0)
