// Tests for the simulation race detector (src/check): same-tick conflict
// detection with provenance, causal-order and access-kind exemptions, and
// the rolling state hash's ability to pinpoint an injected divergence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "hw/profile.hpp"
#include "sim/simulator.hpp"

namespace {

using apn::Time;
using apn::check::Access;
using apn::check::Context;
using apn::check::Finding;
using apn::check::Session;
using apn::check::StateCell;
using apn::sim::Simulator;
using apn::units::us;

TEST(Check, SameTickWriteWriteConflictFlaggedWithProvenance) {
  Simulator sim;
  Session session(sim, Context::Mode::kRecord);
  StateCell<int> cell{"test.cell"};

  // Two events at the same timestamp, both scheduled from the top level:
  // neither is the causal parent of the other, so their write order is an
  // accident of seq assignment — exactly what the detector must flag.
  sim.at(us(10), [&] { cell = 1; });
  sim.at(us(10), [&] { cell = 2; });
  sim.run();

  const std::vector<Finding>& f = session.context().findings();
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].cell, "test.cell");
  EXPECT_EQ(f[0].time, us(10));
  EXPECT_LT(f[0].seq_first, f[0].seq_second);
  EXPECT_EQ(f[0].kind_first, Access::kWrite);
  EXPECT_EQ(f[0].kind_second, Access::kWrite);
  // The human-readable provenance names the cell and both events.
  std::string msg = f[0].message();
  EXPECT_NE(msg.find("test.cell"), std::string::npos);
  EXPECT_NE(msg.find(std::to_string(f[0].seq_first)), std::string::npos);
  EXPECT_NE(msg.find(std::to_string(f[0].seq_second)), std::string::npos);
}

TEST(Check, SameTickWriteReadConflictFlagged) {
  Simulator sim;
  Session session(sim, Context::Mode::kRecord);
  StateCell<int> cell{"test.cell"};

  sim.at(us(10), [&] { cell = 1; });
  sim.at(us(10), [&] { (void)cell.get(); });
  sim.run();

  ASSERT_EQ(session.context().findings().size(), 1u);
  EXPECT_EQ(session.context().findings()[0].kind_second, Access::kRead);
}

TEST(Check, CausallyOrderedSameTickAccessesAreClean) {
  Simulator sim;
  Session session(sim, Context::Mode::kRecord);
  StateCell<int> cell{"test.cell"};

  // A writes, then schedules B (zero delay: same tick). B's order w.r.t. A
  // is fixed by the scheduling structure — no finding.
  sim.at(us(10), [&] {
    cell = 1;
    sim.after(0, [&] { cell = 2; });
  });
  sim.run();

  EXPECT_TRUE(session.context().findings().empty());
  EXPECT_EQ(cell.peek(), 2);
}

TEST(Check, DifferentTickAccessesAreClean) {
  Simulator sim;
  Session session(sim, Context::Mode::kRecord);
  StateCell<int> cell{"test.cell"};

  sim.at(us(10), [&] { cell = 1; });
  sim.at(us(11), [&] { cell = 2; });
  sim.run();

  EXPECT_TRUE(session.context().findings().empty());
}

TEST(Check, AccumAccumCommutesButAccumReadConflicts) {
  Simulator sim;
  Session session(sim, Context::Mode::kRecord);
  StateCell<std::uint64_t> counter{"test.counter"};

  // Two same-tick += commute: clean.
  sim.at(us(10), [&] { counter += 1; });
  sim.at(us(10), [&] { counter += 2; });
  // A sibling read at a later tick shared with another accum: conflict.
  sim.at(us(20), [&] { counter += 1; });
  sim.at(us(20), [&] { (void)counter.get(); });
  sim.run();

  ASSERT_EQ(session.context().findings().size(), 1u);
  EXPECT_EQ(session.context().findings()[0].time, us(20));
  EXPECT_EQ(counter.peek(), 4u);
}

TEST(Check, SampleConflictsWithNothing) {
  Simulator sim;
  Session session(sim, Context::Mode::kRecord);
  StateCell<int> cell{"test.cell"};

  sim.at(us(10), [&] { cell = 1; });
  sim.at(us(10), [&] { (void)cell.sample(); });
  sim.run();

  EXPECT_TRUE(session.context().findings().empty());
}

TEST(Check, MacroOnPlainMemberRecordsAccesses) {
  Simulator sim;
  Session session(sim, Context::Mode::kRecord);
  struct Model {
    std::uint64_t next_seq = 0;
  } model;

  sim.at(us(10), [&] {
    ++model.next_seq;
    APN_CHECK_ACCESS(model.next_seq, kWrite);
  });
  sim.at(us(10), [&] {
    ++model.next_seq;
    APN_CHECK_ACCESS(model.next_seq, kWrite);
  });
  sim.run();

  ASSERT_EQ(session.context().findings().size(), 1u);
  EXPECT_EQ(session.context().findings()[0].cell, "model.next_seq");
  EXPECT_GE(session.context().accesses_recorded(), 2u);
}

// One simulated run for the divergence test: writes a deterministic
// sequence of values, with one value optionally perturbed, and records the
// per-event hash lines the sink would receive.
struct HashTrace {
  std::vector<std::uint64_t> seqs;
  std::vector<std::uint64_t> hashes;
};

HashTrace run_hashed(int perturb_step) {
  Simulator sim;
  Session session(sim, Context::Mode::kRecord);
  HashTrace trace;
  session.context().set_hash_line_fn(
      [](void* user, std::uint64_t seq, Time, std::uint64_t hash) {
        auto* t = static_cast<HashTrace*>(user);
        t->seqs.push_back(seq);
        t->hashes.push_back(hash);
      },
      &trace);

  auto cell = std::make_shared<StateCell<int>>("test.cell");
  for (int step = 0; step < 8; ++step) {
    int value = step == perturb_step ? 999 : step;
    sim.at(us(10) * (step + 1), [cell, value] { *cell = value; });
  }
  sim.run();
  return trace;
}

TEST(Check, StateHashDiffPinpointsInjectedDivergence) {
  HashTrace base = run_hashed(-1);
  HashTrace same = run_hashed(-1);
  HashTrace diverged = run_hashed(5);

  // Bit-identical runs produce bit-identical hash streams.
  ASSERT_EQ(base.hashes.size(), 8u);
  EXPECT_EQ(base.seqs, same.seqs);
  EXPECT_EQ(base.hashes, same.hashes);

  // The perturbed run agrees up to the injected step and diverges exactly
  // there — the property that makes two hash files diffable to the first
  // bad event.
  ASSERT_EQ(diverged.hashes.size(), 8u);
  std::size_t first_diff = 0;
  while (first_diff < 8 && base.hashes[first_diff] == diverged.hashes[first_diff])
    ++first_diff;
  EXPECT_EQ(first_diff, 5u);
  // Divergence persists (the hash is rolling, not per-event-local).
  for (std::size_t i = first_diff; i < 8; ++i)
    EXPECT_NE(base.hashes[i], diverged.hashes[i]);
}

TEST(Check, OuterSessionIsNotShadowedByClusterUnderEnv) {
  // Under APN_CHECK=1 a Cluster installs its own Session, but only when
  // the thread has no context yet: a test's record-mode Session must keep
  // seeing the model's accesses instead of an inner abort-mode one.
  const char* prev = std::getenv("APN_CHECK");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("APN_CHECK", "1", 1);
  {
    Simulator sim;
    Session session(sim, Context::Mode::kRecord);
    auto c = apn::cluster::Cluster::make_cluster_i(sim, 2, apn::hw::params(),
                                                   false);
    apn::cluster::twonode_bandwidth(*c, 4096, 1, {});
    EXPECT_EQ(apn::check::current(), &session.context());
    EXPECT_GT(session.context().accesses_recorded(), 0u);
    EXPECT_TRUE(session.context().findings().empty());
  }
  if (prev != nullptr)
    setenv("APN_CHECK", saved.c_str(), 1);
  else
    unsetenv("APN_CHECK");
}

TEST(Check, NoSessionMeansNoRecordingAndNoCrash) {
  Simulator sim;
  StateCell<int> cell{"test.cell"};
  sim.at(us(10), [&] { cell = 1; });
  sim.at(us(10), [&] { cell = 2; });
  sim.run();
  EXPECT_EQ(cell.peek(), 2);
  EXPECT_EQ(apn::check::current(), nullptr);
}

}  // namespace
