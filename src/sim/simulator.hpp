// Deterministic single-threaded discrete-event simulator.
//
// Events are (time, sequence) ordered: two events scheduled for the same
// picosecond fire in scheduling order, which makes every run bit-exact.
// All higher-level primitives (coroutine delays, resources, channels) are
// built on Simulator::at/after and the coroutine fast paths
// (schedule_resume / resume_after).
//
// Engine layout — the hot path allocates nothing per event:
//
//  * EventNode: an intrusive, fixed-size node carved from simulator-owned
//    slabs and recycled through a freelist. The payload lives in an inline
//    buffer (coroutine handle or small callable); only callables larger
//    than the inline budget fall back to one boxed allocation.
//  * ready ring: a FIFO of nodes scheduled for the *current* picosecond
//    (schedule_resume, after(0, ...)). Same-tick wakeups — the dominant
//    event class, every Gate/CreditPool/Queue wakeup is one — bypass every
//    ordered structure: O(1) push, O(1) pop.
//  * epoch_: a 4-ary heap of slim (time, seq, node*) entries for the
//    current epoch [base, base + 1024), base aligned to 1024 ps. It holds
//    the events scheduled into the open epoch and the spill of a bucket
//    that opens with several events.
//  * epoch buckets: a circular wheel of 4096 buckets, one per 1024 ps
//    epoch, for the epochs after the current one (about 4.2 µs ahead:
//    chunk hops, head latencies and completions). A bucket is an unsorted
//    list, O(1) push; a bitmap plus a summary word finds the next occupied
//    one. Opening an epoch spills its bucket into epoch_; a bucket holding
//    a single event pops straight out.
//  * far_: a second heap of the same type for epochs beyond the bucket
//    window. Opening an epoch first moves the far_ entries the window now
//    reaches into their buckets (or, for the opened epoch, epoch_).
//
// Both heaps sift 24-byte trivially-copyable entries, never the payloads.
//
// Determinism contract: every event receives a global sequence number, and
// the dispatcher always fires the (time, seq)-minimum event. The ring is
// seq-ordered by construction (appends happen in allocation order), and
// each heap pops in (time, seq) order. A bucket is never read in list
// order: it pops alone or empties into epoch_. epoch_ times precede bucket
// times, which precede far_ times. So the merged order is the exact total
// order a single (time, seq) priority queue would produce: bit-identical
// simulated time, regardless of the internal structure.
#pragma once

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/coro_check.hpp"
#include "common/hot.hpp"
#include "common/units.hpp"

namespace apn::sim {

/// Observer of event dispatch, installed with Simulator::set_event_hook.
/// The simulation race detector (src/check) implements this to learn, for
/// every fired event, its (time, seq) and the seq of the event that
/// scheduled it (its causal parent) — sim itself depends on nothing above
/// it. `parent` is kNoParent for events scheduled outside any event
/// (setup code, coroutine bodies started before run()).
class EventHook {
 public:
  static constexpr std::uint64_t kNoParent = ~std::uint64_t{0};

  virtual ~EventHook() = default;
  /// Called before the event's payload runs.
  virtual void on_event_begin(Time now, std::uint64_t seq,
                              std::uint64_t parent) = 0;
  /// Called after the payload returned (including via exception unwinding
  /// being absent: payloads that throw terminate the run).
  virtual void on_event_end() = 0;
};

class Simulator {
 public:
  // The coro-check tick mirror (a thread-local, stored at tick advances,
  // never on the per-event path) lets frame registration stamp a simulated
  // birth time without the sim layer depending on the check layer.
  Simulator() { check::coro::note_tick(0); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  ~Simulator() {
    epoch_.drop_all();
    far_.drop_all();
    for (EventNode* n = ring_head_; n != nullptr; n = n->next) n->drop(n);
    if (bucket_size_ > 0) {
      for (std::size_t w = 0; w < kBuckets / 64; ++w)
        for (std::uint64_t bits = bucket_bits_[w]; bits != 0;
             bits &= bits - 1) {
          const std::size_t b =
              (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
          for (EventNode* n = buckets_[b]; n != nullptr; n = n->next)
            n->drop(n);
        }
    }
  }

  /// Current simulated time (picoseconds).
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now(); clamped if not).
  /// Any callable is accepted; small ones are stored inline in the event
  /// node, large ones cost one boxed allocation.
  template <typename F>
  void at(Time t, F&& fn) {
    schedule_node(make_node<std::decay_t<F>>(std::forward<F>(fn)), t);
  }

  /// True if a callable of type F is stored inline in the event node
  /// rather than boxed. Hot paths static_assert this on their closures,
  /// so a capture that outgrows the node fails to compile.
  template <typename F>
  static constexpr bool stores_inline() {
    return fits_inline<std::decay_t<F>>();
  }

  /// Schedule `fn` after `delay` picoseconds.
  template <typename F>
  void after(Time delay, F&& fn) {
    EventNode* n = make_node<std::decay_t<F>>(std::forward<F>(fn));
    if (delay <= 0)
      ring_push(n);
    else
      schedule_future(n, now_ + delay);
  }

  /// Fast path: resume `h` at the current tick, FIFO with every other
  /// same-tick event. Equivalent to after(0, [h]{ h.resume(); }) but
  /// allocation-free and heap-free.
  APN_HOT void schedule_resume(std::coroutine_handle<> h) {
    ring_push(make_resume_node(h));
  }

  /// Fast path: resume `h` at absolute time `t` (clamped to now()).
  APN_HOT void resume_at(Time t, std::coroutine_handle<> h) {
    schedule_node(make_resume_node(h), t);
  }

  /// Fast path: resume `h` after `delay` picoseconds.
  APN_HOT void resume_after(Time delay, std::coroutine_handle<> h) {
    EventNode* n = make_resume_node(h);
    if (delay <= 0)
      ring_push(n);
    else
      schedule_future(n, now_ + delay);
  }

  /// Process a single event. Returns false if no event is pending.
  APN_HOT bool step() {
    EventNode* n = pop_next();
    if (n == nullptr) return false;
    ++processed_;
    // The invoke trampoline moves the payload out, releases the node back
    // to the freelist, then runs the payload — so events scheduled by the
    // payload reuse the hot node immediately. running_seq_ stays set for
    // the payload's whole execution: nodes it schedules record it as their
    // causal parent.
    running_seq_ = n->seq;
    if (hook_ != nullptr) {
      hook_->on_event_begin(now_, n->seq, n->parent);
      n->invoke(*this, n);
      hook_->on_event_end();
    } else {
      n->invoke(*this, n);
    }
    running_seq_ = EventHook::kNoParent;
    return true;
  }

  /// Run until the event queue drains.
  void run() {
    while (step()) {
    }
  }

  /// Run all events with time <= `t`, then advance the clock to `t`.
  void run_until(Time t) {
    while (peek_time(t)) step();
    if (now_ < t) advance_to(t);
  }

  /// Install (or clear, with nullptr) the event-dispatch observer. Debug
  /// tooling only: with no hook the dispatch loop takes the unhooked path.
  void set_event_hook(EventHook* hook) { hook_ = hook; }
  EventHook* event_hook() const { return hook_; }

  /// Sequence number of the event currently being dispatched, or
  /// EventHook::kNoParent outside dispatch.
  std::uint64_t running_seq() const { return running_seq_; }

  std::uint64_t events_processed() const { return processed_; }
  bool empty() const {
    return ring_head_ == nullptr && epoch_.empty() && bucket_size_ == 0 &&
           far_.empty();
  }
  std::size_t pending() const {
    return ring_size_ + epoch_.size() + bucket_size_ + far_.size();
  }

  // Queue geometry. An event `d` ps ahead of an epoch-aligned now() lands
  // in epoch_ for d < kEpochSpan, in a bucket for d < kHorizon, and in
  // far_ beyond.
  /// Span of one epoch: epoch_'s reach, and one bucket.
  static constexpr Time kEpochSpan = 1024;
  /// Epoch buckets in the circular wheel. Power of two.
  static constexpr std::size_t kBuckets = 4096;
  /// Reach of epoch_ plus buckets from the current epoch's start.
  static constexpr Time kHorizon = kEpochSpan * static_cast<Time>(kBuckets);

 private:
  /// Inline payload budget. Sized so the capturing lambdas on the model's
  /// hot paths (this + a UniqueFn completion + a few scalars) stay inline;
  /// with the 48-byte header the node fills two cache lines.
  static constexpr std::size_t kInlineBytes = 80;
  static constexpr int kEpochBits = std::countr_zero(
      static_cast<std::uint64_t>(kEpochSpan));
  static constexpr std::size_t kBucketMask = kBuckets - 1;
  /// Entries a heap reserves on its first push.
  static constexpr std::size_t kHeapReserve = 64;
  static_assert(std::has_single_bit(static_cast<std::uint64_t>(kEpochSpan)),
                "an epoch's start is a time with its low bits masked off");
  static_assert(kBuckets == 64 * 64,
                "one summary bit per bucket-bitmap word, wrapping at 64");

  struct EventNode {
    std::uint64_t seq;
    std::uint64_t parent;  // seq of the scheduling event (causal parent)
    EventNode* next;  // freelist / ring / bucket link
    void (*invoke)(Simulator&, EventNode*);  // fire payload, release node
    void (*drop)(EventNode*);                // destroy payload, no fire
    Time time;  // fire time; set only while the node sits in a bucket
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };
  static_assert(sizeof(EventNode) == 128, "a node spans two cache lines");

  /// Slim heap entry: sifting compares and moves these, not the nodes.
  struct HeapEntry {
    Time time;
    std::uint64_t seq;
    EventNode* node;
  };

  /// 4-ary min-heap on (time, seq): half the levels of a binary heap, and
  /// each level's four children share one or two cache lines. (time, seq)
  /// keys are unique, so the pop order — the only thing determinism sees —
  /// is the same for any correct priority structure.
  class EntryHeap {
   public:
    bool empty() const { return v_.empty(); }
    std::size_t size() const { return v_.size(); }
    const HeapEntry& top() const { return v_[0]; }

    void drop_all() {
      for (const HeapEntry& e : v_) e.node->drop(e.node);
    }

    /// Out of line: inlined into every at()/after() it would bloat the
    /// callers, and the events that get here are the minority.
    [[gnu::noinline]] void push(HeapEntry e) {
      // Room for a typical backlog at once (a GPU's queued P2P completions
      // reach ~50 entries), not a doubling from one entry.
      if (v_.capacity() == 0) v_.reserve(kHeapReserve);
      v_.push_back(e);
      std::size_t i = v_.size() - 1;
      while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!less(e, v_[parent])) break;
        v_[i] = v_[parent];
        i = parent;
      }
      v_[i] = e;
    }

    HeapEntry pop() {
      const HeapEntry result = v_[0];
      const HeapEntry e = v_.back();
      v_.pop_back();
      const std::size_t size = v_.size();
      if (size > 0) {
        std::size_t i = 0;
        for (;;) {
          const std::size_t first = (i << 2) + 1;
          if (first >= size) break;
          const std::size_t last = std::min(first + 4, size);
          std::size_t best = first;
          for (std::size_t c = first + 1; c < last; ++c)
            if (less(v_[c], v_[best])) best = c;
          if (!less(v_[best], e)) break;
          v_[i] = v_[best];
          i = best;
        }
        v_[i] = e;
      }
      return result;
    }

   private:
    static bool less(const HeapEntry& a, const HeapEntry& b) {
      return a.time < b.time || (a.time == b.time && a.seq < b.seq);
    }

    std::vector<HeapEntry> v_;
  };

  // ---- payload trampolines ----------------------------------------------

  static void coro_invoke(Simulator& sim, EventNode* n) {
    auto h = *std::launder(
        reinterpret_cast<std::coroutine_handle<>*>(n->storage));
    sim.release_node(n);
    h.resume();
  }

  /// Dropping a pending resume reclaims the suspended frame: it can never
  /// be resumed once its node is discarded, and the node is the only thing
  /// holding it (a frame is parked XOR scheduled). Cascaded destroys (frame
  /// locals releasing sync primitives with their own parked frames) never
  /// touch this simulator's queues, so the destructor's drop loops stay
  /// valid while frames die under them.
  static void coro_drop(EventNode* n) {
    auto h = *std::launder(
        reinterpret_cast<std::coroutine_handle<>*>(n->storage));
    if (h) h.destroy();
  }

  template <typename F>
  static void inline_invoke(Simulator& sim, EventNode* n) {
    F* slot = std::launder(reinterpret_cast<F*>(n->storage));
    F fn = std::move(*slot);
    slot->~F();
    sim.release_node(n);
    fn();
  }

  template <typename F>
  static void inline_drop(EventNode* n) {
    std::launder(reinterpret_cast<F*>(n->storage))->~F();
  }

  template <typename F>
  static void boxed_invoke(Simulator& sim, EventNode* n) {
    F* boxed = *std::launder(reinterpret_cast<F**>(n->storage));
    sim.release_node(n);
    F fn = std::move(*boxed);
    delete boxed;
    fn();
  }

  template <typename F>
  static void boxed_drop(EventNode* n) {
    delete *std::launder(reinterpret_cast<F**>(n->storage));
  }

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <typename F, typename Arg>
  APN_HOT EventNode* make_node(Arg&& fn) {
    EventNode* n = alloc_node();
    n->seq = next_seq_++;
    n->parent = running_seq_;
    if constexpr (fits_inline<F>()) {
      ::new (static_cast<void*>(n->storage)) F(std::forward<Arg>(fn));
      n->invoke = &inline_invoke<F>;
      n->drop = &inline_drop<F>;
    } else {
      // Deliberate cold fallback for oversized callables; the common case
      // is the placement-new above.
      F* boxed = new F(std::forward<Arg>(fn));
      ::new (static_cast<void*>(n->storage)) (F*)(boxed);
      n->invoke = &boxed_invoke<F>;
      n->drop = &boxed_drop<F>;
    }
    return n;
  }

  APN_HOT EventNode* make_resume_node(std::coroutine_handle<> h) {
    EventNode* n = alloc_node();
    n->seq = next_seq_++;
    n->parent = running_seq_;
    n->invoke = &coro_invoke;
    n->drop = &coro_drop;
    ::new (static_cast<void*>(n->storage)) std::coroutine_handle<>(h);
    return n;
  }

  // ---- slab / freelist ---------------------------------------------------

  APN_HOT EventNode* alloc_node() {
    if (free_ == nullptr) grow_slab();
    EventNode* n = free_;
    free_ = n->next;
    return n;
  }

  void release_node(EventNode* n) {
    n->next = free_;
    free_ = n;
  }

  void grow_slab() {
    // Fixed 64 KB slabs, two properties on purpose: default-init (not
    // make_unique's value-init — nodes are fully written on allocation, so
    // zeroing slabs would be pure memset overhead), and a size below the
    // glibc mmap threshold so short-lived Simulators recycle arena memory
    // instead of paying mmap/munmap plus kernel page-zeroing per instance.
    constexpr std::size_t count = (64 * 1024) / sizeof(EventNode);
    slabs_.emplace_back(new EventNode[count]);
    EventNode* nodes = slabs_.back().get();
    // Chain in reverse so allocation walks the slab in address order.
    for (std::size_t i = count; i-- > 0;) {
      nodes[i].next = free_;
      free_ = &nodes[i];
    }
  }

  // ---- scheduling --------------------------------------------------------

  void schedule_node(EventNode* n, Time t) {
    if (t <= now_)
      ring_push(n);
    else
      schedule_future(n, t);
  }

  /// Route a strictly-future event to epoch_, a bucket or far_.
  /// Invariants: base_ <= now_ < t, so t - base_ > 0; far_ only ever holds
  /// times >= base_ + kHorizon.
  void schedule_future(EventNode* n, Time t) {
    const Time rel = t - base_;
    if (rel < kEpochSpan)
      epoch_.push(HeapEntry{t, n->seq, n});
    else if (rel < kHorizon)
      bucket_push(n, t);
    else
      far_.push(HeapEntry{t, n->seq, n});
  }

  // ---- ready ring (same-tick FIFO) --------------------------------------

  void ring_push(EventNode* n) {
    n->next = nullptr;
    if (ring_tail_ != nullptr)
      ring_tail_->next = n;
    else
      ring_head_ = n;
    ring_tail_ = n;
    ++ring_size_;
  }

  EventNode* ring_pop() {
    EventNode* n = ring_head_;
    ring_head_ = n->next;
    if (ring_head_ == nullptr) ring_tail_ = nullptr;
    --ring_size_;
    return n;
  }

  // ---- epoch buckets -----------------------------------------------------
  //
  // Bucket b holds the events of the one epoch in (current, current +
  // kBuckets) whose index is b, as an unordered list. The current epoch's
  // own index is always free, since its events live in epoch_. A
  // bucket's head pointer is meaningful only while its bit is set, so the
  // array needs no initialisation.

  void bucket_push(EventNode* n, Time t) {
    n->time = t;
    const std::size_t b = static_cast<std::size_t>(t >> kEpochBits) &
                          kBucketMask;
    std::uint64_t& word = bucket_bits_[b >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (b & 63);
    n->next = (word & bit) != 0 ? buckets_[b] : nullptr;
    buckets_[b] = n;
    word |= bit;
    bucket_summary_ |= std::uint64_t{1} << (b >> 6);
    ++bucket_size_;
  }

  /// Unlink bucket `b`'s whole list and return its head.
  EventNode* bucket_take(std::size_t b) {
    std::uint64_t& word = bucket_bits_[b >> 6];
    word &= ~(std::uint64_t{1} << (b & 63));
    if (word == 0) bucket_summary_ &= ~(std::uint64_t{1} << (b >> 6));
    return buckets_[b];
  }

  /// Index of the first occupied bucket after the current epoch's, in
  /// circular order; at least one bucket must be occupied.
  std::size_t next_occupied_bucket() const {
    const std::size_t start =
        static_cast<std::size_t>((base_ >> kEpochBits) + 1) & kBucketMask;
    std::size_t w = start >> 6;
    std::uint64_t word =
        bucket_bits_[w] & (~std::uint64_t{0} << (start & 63));
    if (word == 0) {
      // Scan the other words circularly, starting after w; word w itself
      // comes last, where only its bits below `start` can be set.
      const int skip = static_cast<int>((w + 1) & 63);
      w = (w + 1 + static_cast<std::size_t>(
                       std::countr_zero(std::rotr(bucket_summary_, skip)))) &
          63;
      word = bucket_bits_[w];
    }
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
  }

  /// Start time of the epoch bucket `b` holds.
  Time bucket_epoch_start(std::size_t b) const {
    const std::size_t ahead =
        (b - static_cast<std::size_t>(base_ >> kEpochBits)) & kBucketMask;
    return base_ + static_cast<Time>(ahead) * kEpochSpan;
  }

  // ---- dispatch ----------------------------------------------------------

  /// Pop the (time, seq)-minimum event and advance now_ to its fire time.
  ///
  /// Order argument: epoch_ entries at now_ were all scheduled before
  /// this tick began (later same-tick schedules go to the ring), so their
  /// seqs all precede the ring's; the ring precedes any strictly-later
  /// epoch_ entry; every epoch_ time precedes every bucket time, and every
  /// bucket time precedes every far_ time.
  APN_HOT EventNode* pop_next() {
    if (!epoch_.empty() &&
        (epoch_.top().time == now_ || ring_head_ == nullptr)) {
      const HeapEntry e = epoch_.pop();
      advance_to(e.time);
      return e.node;
    }
    if (ring_head_ != nullptr) return ring_pop();
    return open_next_epoch();
  }

  void advance_to(Time t) {
    now_ = t;
    check::coro::note_tick(now_);
  }

  /// epoch_ and the ring are empty: make the earliest pending epoch the
  /// current one and pop its first event, or return nullptr if none is
  /// pending. Out of line, so the dispatch loop around step() stays small
  /// (inlined, it slowed the same-tick ring path by ~15%).
  [[gnu::noinline]] EventNode* open_next_epoch() {
    if (bucket_size_ > 0) {
      const std::size_t b = next_occupied_bucket();
      base_ = bucket_epoch_start(b);
      // far_ holds no event of this epoch: an epoch's far_ entries moved
      // out when it entered the window. So after the migration epoch_ is
      // still empty and the bucket alone decides.
      migrate_far();
      EventNode* n = bucket_take(b);
      if (n->next == nullptr) {
        --bucket_size_;
        advance_to(n->time);
        return n;
      }
      for (; n != nullptr; n = n->next) {
        epoch_.push(HeapEntry{n->time, n->seq, n});
        --bucket_size_;
      }
      const HeapEntry e = epoch_.pop();
      advance_to(e.time);
      return e.node;
    }
    if (far_.empty()) return nullptr;
    // Every bucket is empty: jump to far_'s top's epoch. The top itself
    // pops directly (the sparse case costs no epoch_ round-trip).
    base_ = far_.top().time & ~(kEpochSpan - 1);
    const HeapEntry top = far_.pop();
    advance_to(top.time);
    migrate_far();
    return top.node;
  }

  /// Move the far_ entries the window [base_, base_ + kHorizon) now
  /// reaches into epoch_ or their buckets.
  void migrate_far() {
    while (!far_.empty() && far_.top().time - base_ < kHorizon) {
      const HeapEntry e = far_.pop();
      if (e.time - base_ < kEpochSpan)
        epoch_.push(e);
      else
        bucket_push(e.node, e.time);
    }
  }

  /// True if an event with fire time <= `t` is pending.
  bool peek_time(Time t) const {
    if (ring_head_ != nullptr) return now_ <= t;
    if (!epoch_.empty()) return epoch_.top().time <= t;
    if (bucket_size_ > 0) {
      const std::size_t b = next_occupied_bucket();
      const Time start = bucket_epoch_start(b);
      if (start > t) return false;
      if (start + kEpochSpan <= t + 1) return true;
      // `t` falls inside the epoch: look for an event at or before it.
      for (const EventNode* n = buckets_[b]; n != nullptr; n = n->next)
        if (n->time <= t) return true;
      return false;
    }
    return !far_.empty() && far_.top().time <= t;
  }

  Time now_ = 0;
  Time base_ = 0;  ///< current epoch's start; base_ <= now_ always
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t running_seq_ = EventHook::kNoParent;
  EventHook* hook_ = nullptr;
  EventNode* ring_head_ = nullptr;
  EventNode* ring_tail_ = nullptr;
  std::size_t ring_size_ = 0;
  std::size_t bucket_size_ = 0;
  std::uint64_t bucket_summary_ = 0;  ///< bit w: bucket_bits_[w] != 0
  EventNode* free_ = nullptr;
  EntryHeap epoch_;  ///< the open epoch [base_, base_ + kEpochSpan)
  EntryHeap far_;    ///< times >= base_ + kHorizon
  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  // The large arrays come last, after every hot scalar.
  std::uint64_t bucket_bits_[kBuckets / 64] = {};
  EventNode* buckets_[kBuckets];  // valid where bucket_bits_ is set
};

}  // namespace apn::sim
