#include "check/check.hpp"

#include "check/coro_check.hpp"

#include <cinttypes>
#include <cstdlib>
#include <cstring>

namespace apn::check {

namespace {

/// splitmix64 finalizer: cheap, well-mixed, stable across platforms.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h += v + 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

std::uint64_t fnv1a(const char* s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (; *s != '\0'; ++s) h = (h ^ static_cast<unsigned char>(*s)) *
                              0x100000001b3ull;
  return h;
}

bool g_forced = false;

}  // namespace

const char* access_name(Access a) {
  switch (a) {
    case Access::kRead: return "read";
    case Access::kWrite: return "write";
    case Access::kAccum: return "accum";
    case Access::kSample: return "sample";
  }
  std::abort();  // unreachable: no default, so -Wswitch guards enum growth
}

std::string Finding::message() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "same-tick race on cell '%s' at t=%" PRId64
                ": event #%" PRIu64 " (%s) and event #%" PRIu64
                " (%s) are causally unordered",
                cell.c_str(), static_cast<std::int64_t>(time), seq_first,
                access_name(kind_first), seq_second,
                access_name(kind_second));
  return buf;
}

// ---- Context --------------------------------------------------------------

void Context::on_event_begin(Time now, std::uint64_t seq,
                             std::uint64_t parent) {
  if (now != cur_tick_) {
    cur_tick_ = now;
    tick_parents_.clear();
  }
  tick_parents_.emplace(seq, parent);
  cur_seq_ = seq;
  in_event_ = true;
  event_wrote_ = false;
}

void Context::on_event_end() {
  if (event_wrote_ && hash_fn_ != nullptr)
    hash_fn_(hash_user_, cur_seq_, cur_tick_, hash_);
  in_event_ = false;
}

Context::CellState& Context::cell_state(const void* cell, const char* name) {
  auto [it, inserted] = cells_.try_emplace(cell);
  CellState& cs = it->second;
  if (inserted) {
    cs.ordinal = next_ordinal_++;
    cs.name = name;
    cs.name_hash = fnv1a(name);
  }
  return cs;
}

bool Context::ancestor_of_current(std::uint64_t a) const {
  auto it = tick_parents_.find(cur_seq_);
  while (it != tick_parents_.end()) {
    const std::uint64_t p = it->second;
    if (p == a) return true;
    if (p == sim::EventHook::kNoParent) return false;
    // A parent absent from the tick map fired at an earlier tick; the
    // chain cannot re-enter this tick (parents fire no later than their
    // children), so `a` is unreachable from here.
    it = tick_parents_.find(p);
  }
  return false;
}

void Context::conflict(const CellState& cs, std::uint64_t other_seq,
                       Access other_kind, Access my_kind) {
  Finding f;
  f.cell = cs.name != nullptr ? cs.name : "?";
  f.time = cur_tick_;
  f.seq_first = other_seq;
  f.seq_second = cur_seq_;
  f.kind_first = other_kind;
  f.kind_second = my_kind;
  if (mode_ == Mode::kAbort) {
    std::fprintf(stderr, "[apn::check] %s\n", f.message().c_str());
    std::fprintf(stderr,
                 "[apn::check] the outcome depends on event scheduling "
                 "order; fix the model or mark the access kAccum/kSample "
                 "with a justification\n");
    std::abort();
  }
  findings_.push_back(std::move(f));
}

void Context::mix_write(const CellState& cs, Access kind,
                        std::uint64_t vhash) {
  hash_ = mix(hash_, cs.name_hash ^ cs.ordinal);
  hash_ = mix(hash_, vhash ^ (static_cast<std::uint64_t>(kind) << 56));
  event_wrote_ = true;
}

void Context::record(const void* cell, const char* name, Access kind,
                     std::uint64_t vhash) {
  // Accesses outside event dispatch (setup/teardown, post-run statistics
  // reads) have no same-tick peers to race with.
  if (!in_event_) return;
  ++accesses_;
  CellState& cs = cell_state(cell, name);
  if (cs.tick != cur_tick_) {
    cs.tick = cur_tick_;
    cs.has_write = false;
    cs.has_accum = false;
    cs.reader_seqs.clear();
  }

  const auto unordered_with = [&](std::uint64_t other) {
    return other != cur_seq_ && !ancestor_of_current(other);
  };

  switch (kind) {
    case Access::kSample:
      return;  // order-tolerant by contract: participates in nothing
    case Access::kRead:
      if (cs.has_write && unordered_with(cs.write_seq))
        conflict(cs, cs.write_seq, cs.write_kind, kind);
      if (cs.has_accum && unordered_with(cs.accum_seq))
        conflict(cs, cs.accum_seq, Access::kAccum, kind);
      for (std::uint64_t r : cs.reader_seqs)
        if (r == cur_seq_) return;  // already noted for this event
      cs.reader_seqs.push_back(cur_seq_);
      return;
    case Access::kWrite:
      if (cs.has_write && unordered_with(cs.write_seq))
        conflict(cs, cs.write_seq, cs.write_kind, kind);
      if (cs.has_accum && unordered_with(cs.accum_seq))
        conflict(cs, cs.accum_seq, Access::kAccum, kind);
      for (std::uint64_t r : cs.reader_seqs)
        if (unordered_with(r)) {
          conflict(cs, r, Access::kRead, kind);
          break;  // one read-write finding per cell per write is enough
        }
      cs.has_write = true;
      cs.write_seq = cur_seq_;
      cs.write_kind = kind;
      mix_write(cs, kind, vhash);
      return;
    case Access::kAccum:
      if (cs.has_write && unordered_with(cs.write_seq))
        conflict(cs, cs.write_seq, cs.write_kind, kind);
      // accum-accum commutes: no check against cs.accum_seq.
      for (std::uint64_t r : cs.reader_seqs)
        if (unordered_with(r)) {
          conflict(cs, r, Access::kRead, kind);
          break;
        }
      cs.has_accum = true;
      cs.accum_seq = cur_seq_;
      mix_write(cs, kind, vhash);
      return;
  }
}

// ---- HashSink -------------------------------------------------------------

void HashSink::line(std::uint64_t seq, Time time, std::uint64_t hash) {
  if (!enabled()) return;
  char buf[96];
  std::snprintf(buf, sizeof buf, "e %" PRIu64 " t=%" PRId64 " h=%016" PRIx64
                "\n",
                seq, static_cast<std::int64_t>(time), hash);
  emit(buf);
}

void HashSink::note(const std::string& text) {
  if (enabled()) emit("# " + text + "\n");
}

void apply_flags(bool race_check, bool coro_check,
                 const std::string& state_hash_out) {
  if (!state_hash_out.empty()) HashSink::global().open(state_hash_out);
  if (race_check || !state_hash_out.empty()) Session::force_enable(true);
  if (coro_check) {
    coro::force_enable(true);
    coro::install_exit_report();
  }
}

// ---- Session --------------------------------------------------------------

namespace {
void hash_to_global_sink(void*, std::uint64_t seq, Time time,
                         std::uint64_t hash) {
  HashSink::global().line(seq, time, hash);
}
}  // namespace

Session::Session(sim::Simulator& sim, Context::Mode mode)
    : sim_(&sim), ctx_(mode) {
  prev_hook_ = sim.event_hook();
  prev_ctx_ = detail::current_ctx;
  sim.set_event_hook(&ctx_);
  detail::current_ctx = &ctx_;
  if (HashSink::global().enabled())
    ctx_.set_hash_line_fn(&hash_to_global_sink, nullptr);
}

Session::~Session() {
  sim_->set_event_hook(prev_hook_);
  detail::current_ctx = prev_ctx_;
}

bool Session::env_enabled() {
  if (g_forced) return true;
  const char* e = std::getenv("APN_CHECK");
  return e != nullptr && e[0] != '\0' && std::strcmp(e, "0") != 0;
}

void Session::force_enable(bool on) {
  g_forced = on;
  // Arm frame poisoning too: --check / APN_CHECK covers the coroutine
  // frame-lifetime oracle's use-after-free half (coro_check.hpp).
  coro::mirror_check_forced(on);
}

std::unique_ptr<Session> Session::from_env(sim::Simulator& sim) {
  if (current() != nullptr || !env_enabled()) return nullptr;
  return std::make_unique<Session>(sim, Context::Mode::kAbort);
}

}  // namespace apn::check
