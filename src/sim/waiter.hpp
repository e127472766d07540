// Intrusive waiter list — the one blocking primitive under every sync
// object (Gate, Future, CreditPool, Queue).
//
// A Waiter node is embedded in the awaiter object, which lives in the
// suspended coroutine's frame — a stable address for exactly as long as the
// coroutine is parked on the list. Linking frames together instead of
// pushing handles into a std::deque makes suspend/wake allocation-free:
// suspend is one pointer append, wake is one pop plus a ready-ring push.
//
// Wakeups MUST go through Simulator::schedule_resume (never h.resume()
// inline): the resumed coroutine may destroy its frame — and with it the
// Waiter node — so the node must be unlinked before the resume runs, and
// inline resumption would also break deterministic FIFO interleaving.
#pragma once

#include <coroutine>
#include <cstddef>

namespace apn::sim {

/// Base waiter node: a parked coroutine. Sync objects needing extra
/// per-waiter state (credit count, delivery slot) derive from it.
struct Waiter {
  std::coroutine_handle<> handle;
  Waiter* next = nullptr;
};

/// Intrusive singly-linked FIFO of suspended coroutines. Does not own its
/// nodes while alive; each node must stay alive (i.e. the owning coroutine
/// must stay suspended) until popped. Destruction is the one exception:
/// a frame still parked here when the primitive dies can never resume, so
/// the destructor reclaims it (see "Coroutine lifetime discipline" in
/// docs/CORRECTNESS.md — this is what lets --coro-check treat any frame
/// alive at exit as a genuine leak).
template <typename Node = Waiter>
class WaiterList {
 public:
  WaiterList() = default;
  WaiterList(const WaiterList&) = delete;
  WaiterList& operator=(const WaiterList&) = delete;

  ~WaiterList() {
    // The node lives inside the frame being destroyed, so read the link
    // before the destroy. Destroys may cascade (a dying frame's locals can
    // drop the last reference to another primitive holding parked frames),
    // but never re-enter this list: a frame parked here cannot also hold
    // the last reference to this list's owner, or the owner would still be
    // alive.
    Node* n = head_;
    head_ = nullptr;
    tail_ = nullptr;
    size_ = 0;
    while (n != nullptr) {
      Node* next = static_cast<Node*>(n->next);
      std::coroutine_handle<> h = n->handle;
      n = next;
      if (h) h.destroy();
    }
  }

  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }

  /// Front of the FIFO (oldest waiter); list must be non-empty.
  Node* front() const { return head_; }

  void push(Node* n) {
    n->next = nullptr;
    if (tail_ != nullptr)
      tail_->next = static_cast<Waiter*>(n);
    else
      head_ = n;
    tail_ = n;
    ++size_;
  }

  /// Unlink and return the oldest waiter; list must be non-empty.
  Node* pop() {
    Node* n = head_;
    head_ = static_cast<Node*>(n->next);
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    return n;
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace apn::sim
