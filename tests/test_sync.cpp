#include <gtest/gtest.h>

#include "sim/coro.hpp"
#include "sim/sync.hpp"

namespace apn::sim {
namespace {

using units::us;

TEST(Gate, WaitersResumeOnOpen) {
  Simulator sim;
  Gate gate(sim);
  std::vector<Time> woke;
  auto waiter = [](Simulator& sim, Gate& g, std::vector<Time>& woke) -> Coro {
    co_await g.wait();
    woke.push_back(sim.now());
  };
  waiter(sim, gate, woke);
  waiter(sim, gate, woke);
  sim.after(us(4), [&] { gate.open(); });
  sim.run();
  ASSERT_EQ(woke.size(), 2u);
  EXPECT_EQ(woke[0], us(4));
  EXPECT_EQ(woke[1], us(4));
}

TEST(Gate, WaitOnOpenGateDoesNotSuspend) {
  Simulator sim;
  Gate gate(sim);
  gate.open();
  bool done = false;
  [](Gate& g, bool& done) -> Coro {
    co_await g.wait();
    done = true;
  }(gate, done);
  EXPECT_TRUE(done);  // completed synchronously
}

TEST(Gate, OpenIsIdempotent) {
  Simulator sim;
  Gate gate(sim);
  gate.open();
  gate.open();
  EXPECT_TRUE(gate.is_open());
}

TEST(Future, DeliversValueToAllWaiters) {
  Simulator sim;
  Future<int> f(sim);
  std::vector<int> got;
  auto waiter = [](Future<int> f, std::vector<int>& got) -> Coro {
    int v = co_await f;
    got.push_back(v);
  };
  waiter(f, got);
  waiter(f, got);
  sim.after(us(1), [f]() mutable { f.set(42); });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{42, 42}));
}

TEST(Future, SetIsOneShot) {
  Simulator sim;
  Future<int> f(sim);
  f.set(1);
  f.set(2);
  EXPECT_EQ(f.get(), 1);
}

TEST(Future, AwaitAfterReadyReturnsImmediately) {
  Simulator sim;
  Future<int> f(sim);
  f.set(7);
  int got = 0;
  [](Future<int> f, int& got) -> Coro { got = co_await f; }(f, got);
  EXPECT_EQ(got, 7);
}

TEST(CreditPool, LimitsConcurrency) {
  Simulator sim;
  CreditPool pool(sim, 2);
  int concurrent = 0, peak = 0, completed = 0;
  auto worker = [](Simulator& sim, CreditPool& pool, int& concurrent,
                   int& peak, int& completed) -> Coro {
    co_await pool.acquire(1);
    ++concurrent;
    peak = std::max(peak, concurrent);
    co_await delay(sim, us(10));
    --concurrent;
    ++completed;
    pool.release(1);
  };
  for (int i = 0; i < 6; ++i) worker(sim, pool, concurrent, peak, completed);
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(sim.now(), us(30));  // 6 jobs / 2 wide / 10 us each
}

TEST(CreditPool, BlocksUntilEnoughCredits) {
  Simulator sim;
  CreditPool pool(sim, 100);
  std::vector<int> order;
  auto taker = [](Simulator&, CreditPool& p, std::vector<int>& order, int id,
                  std::int64_t n) -> Coro {
    co_await p.acquire(n);
    order.push_back(id);
  };
  taker(sim, pool, order, 1, 60);
  taker(sim, pool, order, 2, 60);  // must wait
  taker(sim, pool, order, 3, 50);  // FIFO: must wait behind #2
  EXPECT_EQ(pool.in_use(), 60);
  sim.after(us(1), [&] { pool.release(60); });
  sim.run();
  // #2 got its 60 (40 left); #3 needs 50, still blocked.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  pool.release(60);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(CreditPool, HeadOfLineBlockingIsFifo) {
  Simulator sim;
  CreditPool pool(sim, 10);
  std::vector<int> order;
  auto taker = [](CreditPool& p, std::vector<int>& order, int id,
                  std::int64_t n) -> Coro {
    co_await p.acquire(n);
    order.push_back(id);
  };
  taker(pool, order, 1, 10);
  taker(pool, order, 2, 10);  // blocks
  taker(pool, order, 3, 1);   // would fit after partial release, but FIFO
  pool.release(5);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1}));  // 2 needs 10, only 5 free; 3 waits
  pool.release(5);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  pool.release(10);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(CreditPool, OverCapacityRequestThrows) {
  // A request that can never be satisfied used to park the caller forever
  // and (being head-of-line) deadlock every later acquirer. It must fail
  // loudly instead — at acquire() time, before anything suspends.
  Simulator sim;
  CreditPool pool(sim, 1024);
  // acquire() throws before it builds the awaiter, so nothing is dropped.
  EXPECT_THROW((void)pool.acquire(1025), std::invalid_argument);
  EXPECT_THROW((void)pool.acquire(-1), std::invalid_argument);
  // The pool is still usable after a rejected request.
  EXPECT_EQ(pool.available(), 1024);
  bool ran = false;
  auto ok = [](CreditPool& p, bool& ran) -> Coro {
    co_await p.acquire(1024);
    ran = true;
  };
  ok(pool, ran);
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(CreditPool, ZeroCapacityIsCountingPool) {
  // capacity == 0 means "pure counting pool" (e.g. an arrived-bytes
  // counter that is only ever fed by release()): any non-negative request
  // is legal and waits for producers.
  Simulator sim;
  CreditPool pool(sim, 0);
  std::vector<int> order;
  auto consumer = [](CreditPool& p, std::vector<int>& order) -> Coro {
    co_await p.acquire(4096);
    order.push_back(1);
  };
  consumer(pool, order);
  EXPECT_THROW((void)pool.acquire(-1), std::invalid_argument);
  sim.after(us(1), [&] { pool.release(4096); });
  sim.run();
  ASSERT_EQ(order.size(), 1u);
}

TEST(Queue, FifoDelivery) {
  Simulator sim;
  Queue<int> q(sim);
  std::vector<int> got;
  [](Queue<int>& q, std::vector<int>& got) -> Coro {
    for (int i = 0; i < 3; ++i) got.push_back(co_await q.pop());
  }(q, got);
  q.push(1);
  q.push(2);
  q.push(3);
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Queue, PopBeforePushSuspends) {
  Simulator sim;
  Queue<int> q(sim);
  Time got_at = -1;
  int got = 0;
  [](Simulator& sim, Queue<int>& q, Time& got_at, int& got) -> Coro {
    got = co_await q.pop();
    got_at = sim.now();
  }(sim, q, got_at, got);
  sim.after(us(9), [&] { q.push(5); });
  sim.run();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(got_at, us(9));
}

TEST(Queue, ConcurrentPoppersEachGetOneItem) {
  Simulator sim;
  Queue<int> q(sim);
  std::vector<int> got;
  auto popper = [](Queue<int>& q, std::vector<int>& got) -> Coro {
    got.push_back(co_await q.pop());
  };
  popper(q, got);
  popper(q, got);
  q.push(10);
  q.push(20);
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0] + got[1], 30);
  EXPECT_NE(got[0], got[1]);
}

TEST(Queue, SameTickStealDoesNotLoseItems) {
  // A waiter is woken by a push while another popper arrives at the same
  // tick: both items must be delivered exactly once.
  Simulator sim;
  Queue<int> q(sim);
  std::vector<int> got;
  auto popper = [](Queue<int>& q, std::vector<int>& got) -> Coro {
    got.push_back(co_await q.pop());
  };
  popper(q, got);  // suspends
  sim.after(us(1), [&] {
    q.push(1);       // wakes the suspended popper (delivery at same tick)
    popper(q, got);  // new popper at the same tick
    q.push(2);
  });
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0] + got[1], 3);
}

}  // namespace
}  // namespace apn::sim
