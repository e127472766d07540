#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pcie/fabric.hpp"
#include "pcie/memory.hpp"

namespace apn::pcie {
namespace {

using units::us;

/// Endpoint that records writes and answers reads with a pattern.
class ScratchDevice : public Device {
 public:
  explicit ScratchDevice(sim::Simulator& sim) : sim_(&sim) {}

  void handle_write(std::uint64_t addr, Payload payload) override {
    writes.push_back({addr, payload.bytes, sim_->now()});
    if (!payload.data.empty())
      last_data.assign(payload.data.begin(), payload.data.end());
  }
  void handle_read(std::uint64_t, std::uint32_t len, bool,
                   ReadReply reply) override {
    Payload p;
    p.bytes = len;
    p.data.assign(len, 0xAB);
    sim_->after(us(1), [reply = std::move(reply), p = std::move(p)]() mutable {
      reply(std::move(p));
    });
  }

  struct Write {
    std::uint64_t addr;
    std::uint64_t bytes;
    Time at;
  };
  std::vector<Write> writes;
  std::vector<std::uint8_t> last_data;

 private:
  sim::Simulator* sim_;
};

struct FabricFixture : ::testing::Test {
  sim::Simulator sim;
  Fabric fabric{sim};
  ScratchDevice a{sim}, b{sim};
  int root = -1, sw = -1;

  void SetUp() override {
    root = fabric.add_root();
    sw = fabric.add_switch(root, gen2_x16(), "plx");
    fabric.attach(a, sw, gen2_x8());
    fabric.attach(b, sw, gen2_x8());
    fabric.claim_range(a, 0x1000000, 0x100000);
    fabric.claim_range(b, 0x2000000, 0x100000);
  }
};

TEST_F(FabricFixture, RouteByAddress) {
  EXPECT_EQ(fabric.route(0x1000000), &a);
  EXPECT_EQ(fabric.route(0x10FFFFF), &a);
  EXPECT_EQ(fabric.route(0x2000000), &b);
  EXPECT_EQ(fabric.route(0x9999999), nullptr);  // no default target set
}

TEST_F(FabricFixture, WriteDeliversDataToTarget) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  bool done = false;
  fabric.post_write(a, 0x2000040, Payload::of(data), [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  ASSERT_EQ(b.writes.size(), 1u);
  EXPECT_EQ(b.writes[0].addr, 0x2000040u);
  EXPECT_EQ(b.writes[0].bytes, 1000u);
  EXPECT_EQ(b.last_data, data);
}

TEST_F(FabricFixture, LargeWriteIsChunkedButContiguous) {
  bool done = false;
  fabric.post_write(a, 0x2000000, Payload::timing(20000), [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  // 20000 bytes in 4 KB chunks = 5 chunks (4 full + remainder).
  ASSERT_EQ(b.writes.size(), 5u);
  std::uint64_t total = 0, expect_addr = 0x2000000;
  for (const auto& w : b.writes) {
    EXPECT_EQ(w.addr, expect_addr);
    expect_addr += w.bytes;
    total += w.bytes;
  }
  EXPECT_EQ(total, 20000u);
}

TEST_F(FabricFixture, ReadReturnsTargetData) {
  std::vector<std::uint8_t> got;
  fabric.read(a, 0x2000000, 512, true,
              [&](Payload p) { got = std::move(p.data); });
  sim.run();
  ASSERT_EQ(got.size(), 512u);
  EXPECT_EQ(got[0], 0xAB);
  EXPECT_EQ(got[511], 0xAB);
}

TEST_F(FabricFixture, TransferTimeReflectsLinkSpeed) {
  Time done_at = -1;
  fabric.post_write(a, 0x2000000, Payload::timing(1 << 20),
                    [&] { done_at = sim.now(); });
  sim.run();
  // 1 MiB over x8 Gen2 (4 GB/s raw, ~3.6 GB/s effective): ~290 us plus
  // small hop latencies.
  EXPECT_GT(done_at, us(280));
  EXPECT_LT(done_at, us(320));
}

TEST_F(FabricFixture, PathLatencySums) {
  // a -> switch -> b: two hops of 200 ns each.
  EXPECT_EQ(fabric.path_latency(a, b), units::ns(400));
}

TEST_F(FabricFixture, ConcurrentWritesShareTheUplink) {
  // Both endpoints write to each other simultaneously; each direction of
  // each link is independent, so they should NOT contend.
  Time a_done = -1, b_done = -1;
  fabric.post_write(a, 0x2000000, Payload::timing(1 << 20),
                    [&] { a_done = sim.now(); });
  fabric.post_write(b, 0x1000000, Payload::timing(1 << 20),
                    [&] { b_done = sim.now(); });
  sim.run();
  EXPECT_NEAR(units::to_us(a_done), units::to_us(b_done), 1.0);
  EXPECT_LT(a_done, us(320));
}

TEST_F(FabricFixture, EachChunkCostsOneEventPerHop) {
  // One event per hop, minus single-fed hops. A third endpoint right below
  // the root: a -> c climbs a's link and the switch's uplink, then
  // descends c's link, which only the switch uplink feeds, so a chunk cuts
  // through it. c -> a descends the switch's link, which only c's link
  // feeds. a -> b has no single-fed hop.
  ScratchDevice c{sim};
  fabric.attach(c, root, gen2_x8());
  fabric.claim_range(c, 0x3000000, 0x100000);
  BusAnalyzer uplink;
  struct Case {
    const Device* src;
    std::uint64_t addr;
    std::uint64_t hops;
    std::uint64_t events;  ///< per chunk
    bool analyze_uplink;
  };
  // An analyzer on the switch uplink must see each chunk arrive there, so
  // a -> c is one event per hop again. Analyzers stay attached: last case.
  for (const Case& k : {Case{&a, 0x2000000, 2, 2, false},
                        Case{&a, 0x3000000, 3, 2, false},
                        Case{&c, 0x1000000, 3, 2, false},
                        Case{&a, 0x3000000, 3, 3, true}}) {
    if (k.analyze_uplink) fabric.attach_analyzer(sw, uplink);
    for (std::uint64_t chunks : {1u, 5u, 64u}) {
      SCOPED_TRACE(std::to_string(chunks) + " chunks over " +
                   std::to_string(k.hops) + " hops");
      const std::uint64_t before = sim.events_processed();
      // The last chunk is short: the count is per chunk, not per byte.
      fabric.post_write(*k.src, k.addr,
                        Payload::timing(chunks * fabric.chunk_bytes() - 100));
      sim.run();
      EXPECT_EQ(sim.events_processed() - before, chunks * k.events);
    }
  }
  EXPECT_EQ(uplink.events().size(), 1u + 5u + 64u);
}

/// Arrival (address, time) of every chunk endpoints a and b, behind the
/// switch, write to c, right below the root: they contend for the switch
/// uplink, then queue on c's slower link, which only that uplink feeds.
/// With `analyze_from` >= 0, an analyzer joins the switch uplink at that
/// time (0: before the run), which puts the chunks crossing it after that
/// back on the per-event path; `analyzed` receives how many it saw. With
/// `analyze_all`, analyzers on every link keep every hop per-event.
std::vector<std::pair<std::uint64_t, Time>> contended_single_fed_hop(
    Time analyze_from, std::size_t* analyzed = nullptr,
    bool analyze_all = false) {
  sim::Simulator sim;
  Fabric fabric{sim};
  ScratchDevice a{sim}, b{sim}, c{sim};
  const int root = fabric.add_root();
  const int sw = fabric.add_switch(root, gen2_x16(), "plx");
  fabric.attach(a, sw, gen2_x8());
  fabric.attach(b, sw, gen2_x8());
  fabric.attach(c, root, gen2_x4());
  fabric.claim_range(c, 0x3000000, 0x1000000);
  BusAnalyzer bus, others[3];
  if (analyze_all) {
    fabric.attach_analyzer(a.pcie_node(), others[0]);
    fabric.attach_analyzer(b.pcie_node(), others[1]);
    fabric.attach_analyzer(c.pcie_node(), others[2]);
  }
  if (analyze_from == 0) fabric.attach_analyzer(sw, bus);
  if (analyze_from > 0)
    sim.at(analyze_from, [&] { fabric.attach_analyzer(sw, bus); });
  // Bursts of unequal sizes and start times, some after an idle gap.
  fabric.post_write(a, 0x3000000, Payload::timing(40000));
  fabric.post_write(b, 0x3400000, Payload::timing(30000));
  sim.at(us(5), [&] {
    fabric.post_write(b, 0x3800000, Payload::timing(9000));
  });
  sim.at(us(40), [&] {
    fabric.post_write(a, 0x3C00000, Payload::timing(5000));
    fabric.post_write(b, 0x3D00000, Payload::timing(12345));
  });
  sim.run();
  if (analyzed != nullptr) *analyzed = bus.events().size();
  std::vector<std::pair<std::uint64_t, Time>> arrivals;
  for (const ScratchDevice::Write& w : c.writes)
    arrivals.emplace_back(w.addr, w.at);
  return arrivals;
}

TEST(FabricCutThrough, MatchesThePerEventHopUnderContention) {
  std::size_t analyzed = 0;
  const auto per_event = contended_single_fed_hop(0, &analyzed, true);
  ASSERT_EQ(per_event.size(), 10u + 8u + 3u + 2u + 4u);
  EXPECT_EQ(analyzed, per_event.size());
  const auto cut = contended_single_fed_hop(-1);
  EXPECT_EQ(cut, per_event);
  EXPECT_EQ(contended_single_fed_hop(0, &analyzed), cut);
  EXPECT_EQ(analyzed, cut.size());
  // Attached mid-run, the analyzer sees only the later chunks, and the
  // chunks that cut through before it keep their place in c's queue.
  for (Time from : {us(3), us(12), us(41)}) {
    SCOPED_TRACE(units::to_us(from));
    EXPECT_EQ(contended_single_fed_hop(from, &analyzed), cut);
    EXPECT_GT(analyzed, 0u);
    EXPECT_LT(analyzed, cut.size());
  }
}

TEST_F(FabricFixture, BusAnalyzerRecordsChunks) {
  BusAnalyzer bus;
  fabric.attach_analyzer(b.pcie_node(), bus);
  fabric.post_write(a, 0x2000000, Payload::timing(8192));
  sim.run();
  ASSERT_EQ(bus.events().size(), 2u);  // two 4 KB chunks
  EXPECT_EQ(bus.events()[0].kind, BusEvent::Kind::kWrite);
  EXPECT_TRUE(bus.events()[0].downstream);
  EXPECT_LT(bus.events()[0].time, bus.events()[1].time);
}

TEST_F(FabricFixture, CompletionReusesTheFreedTransferSlot) {
  // Each completion starts the next transfer on the same fabric. The
  // finished transfer's slot is free by then, so a chain three slabs long
  // runs in the first slab.
  constexpr int kChain = 3 * static_cast<int>(Fabric::kXferSlab);
  int writes_done = 0;
  std::vector<std::uint8_t> got;
  std::function<void()> next = [&] {
    if (++writes_done == kChain) {
      fabric.read(a, 0x2000000, 300, true,
                  [&](Payload p) { got = std::move(p.data); });
      return;
    }
    const bool from_a = writes_done % 2 == 0;
    fabric.post_write(from_a ? a : b,
                      from_a ? 0x2000000 : 0x1000000,
                      Payload::timing(5000), [&] { next(); });
  };
  fabric.post_write(a, 0x2000000, Payload::timing(10000), [&] { next(); });
  sim.run();
  EXPECT_EQ(writes_done, kChain);
  EXPECT_EQ(got.size(), 300u);
  EXPECT_EQ(fabric.transfer_slots(), Fabric::kXferSlab);
}

TEST_F(FabricFixture, ConcurrentTransfersTakeOneSlotEach) {
  const std::size_t n = Fabric::kXferSlab + 8;
  std::size_t done = 0;
  for (std::size_t i = 0; i + 1 < n; ++i)
    fabric.post_write(a, 0x2000000, Payload::timing(8192), [&] { ++done; });
  fabric.read(b, 0x1000000, 64, true, [&](Payload) { ++done; });
  sim.run();
  EXPECT_EQ(done, n);
  EXPECT_EQ(fabric.transfer_slots(), 2 * Fabric::kXferSlab);
  // Later transfers reuse the pooled slots.
  for (std::size_t i = 0; i < n; ++i)
    fabric.post_write(b, 0x1000000, Payload::timing(100), [&] { ++done; });
  sim.run();
  EXPECT_EQ(done, 2 * n);
  EXPECT_EQ(fabric.transfer_slots(), 2 * Fabric::kXferSlab);
}

TEST_F(FabricFixture, InterleavedReadsAndWritesRecordPinnedBusTrace) {
  BusAnalyzer bus_a, bus_b;
  fabric.attach_analyzer(a.pcie_node(), bus_a);
  fabric.attach_analyzer(b.pcie_node(), bus_b);
  std::vector<std::uint64_t> read_sizes;
  fabric.post_write(a, 0x2000100, Payload::timing(9000));
  fabric.read(a, 0x2000000, 6000, true,
              [&](Payload p) { read_sizes.push_back(p.bytes); });
  fabric.read(b, 0x1000000, 0, true,  // zero-length: header-only both ways
              [&](Payload p) { read_sizes.push_back(p.bytes); });
  fabric.post_write(b, 0x1000040, Payload::timing(4096));
  sim.after(units::ns(1500), [&] {
    fabric.read(a, 0x2000800, 100, true,
                [&](Payload p) { read_sizes.push_back(p.bytes); });
  });
  sim.run();
  EXPECT_EQ(read_sizes, (std::vector<std::uint64_t>{0, 6000, 100}));

  using K = BusEvent::Kind;
  struct Rec {
    Time time;
    K kind;
    std::uint64_t addr;
    std::uint32_t bytes;
    bool down;
  };
  auto check = [](const BusAnalyzer& bus, const std::vector<Rec>& want) {
    ASSERT_EQ(bus.events().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const BusEvent& ev = bus.events()[i];
      SCOPED_TRACE("record " + std::to_string(i));
      EXPECT_EQ(ev.time, want[i].time);
      EXPECT_EQ(ev.kind, want[i].kind);
      EXPECT_EQ(ev.addr, want[i].addr);
      EXPECT_EQ(ev.bytes, want[i].bytes);
      EXPECT_EQ(ev.downstream, want[i].down);
    }
  };
  // Pinned timings, kinds and order of every chunk on both device links;
  // a's uplink carries what a sends upstream and what arrives for it.
  check(bus_a, {
      {414000, K::kReadReq, 0x1000000, 0, true},
      {1336000, K::kWrite, 0x2000100, 4096, false},
      {2472000, K::kWrite, 0x2001100, 4096, false},
      {2679000, K::kWrite, 0x1000040, 4096, true},
      {2702000, K::kWrite, 0x2002100, 808, false},
      {2709000, K::kReadReq, 0x2000000, 0, false},
      {2716000, K::kCompletion, 0x1000000, 0, false},
      {2723000, K::kReadReq, 0x2000800, 0, false},
      {7717000, K::kCompletion, 0x2000000, 4096, true},
      {8249000, K::kCompletion, 0x2001000, 1904, true},
      {8281000, K::kCompletion, 0x2000800, 100, true},
  });
  // b's uplink.
  check(bus_b, {
      {207000, K::kReadReq, 0x1000000, 0, false},
      {1343000, K::kWrite, 0x1000040, 4096, false},
      {2672000, K::kWrite, 0x2000100, 4096, true},
      {3808000, K::kWrite, 0x2001100, 4096, true},
      {4038000, K::kWrite, 0x2002100, 808, true},
      {4045000, K::kReadReq, 0x2000000, 0, true},
      {4052000, K::kCompletion, 0x1000000, 0, true},
      {4059000, K::kReadReq, 0x2000800, 0, true},
      {6381000, K::kCompletion, 0x2000000, 4096, false},
      {6913000, K::kCompletion, 0x2001000, 1904, false},
      {6945000, K::kCompletion, 0x2000800, 100, false},
  });
}

/// Counts destructions of the capture it travels in (moves hand it on).
struct Tally {
  int* destroyed;
  explicit Tally(int* d) : destroyed(d) {}
  Tally(Tally&& o) noexcept : destroyed(std::exchange(o.destroyed, nullptr)) {}
  ~Tally() {
    if (destroyed != nullptr) ++*destroyed;
  }
};

/// Tears a fabric down with write chunks on the wire and read replies
/// still pending inside the target, in either order relative to the
/// simulator. Every completion is destroyed once and none runs.
void teardown_in_flight(bool fabric_first) {
  int ran = 0, destroyed = 0;
  {
    auto engine = std::make_unique<sim::Simulator>();
    auto fabric = std::make_unique<Fabric>(*engine);
    ScratchDevice a(*engine), b(*engine);
    const int sw = fabric->add_switch(fabric->add_root(), gen2_x16(), "plx");
    fabric->attach(a, sw, gen2_x8());
    fabric->attach(b, sw, gen2_x8());
    fabric->claim_range(a, 0x1000000, 0x100000);
    fabric->claim_range(b, 0x2000000, 0x100000);

    fabric->post_write(a, 0x2000000,
                       Payload::of(std::vector<std::uint8_t>(50000, 7)),
                       [t = Tally(&destroyed), &ran] { ++ran; });
    fabric->read(a, 0x2000000, 20000, true,
                 [t = Tally(&destroyed), &ran](Payload) { ++ran; });
    fabric->read(b, 0x1000000, 100, true,
                 [t = Tally(&destroyed), &ran](Payload) { ++ran; });
    engine->run_until(us(1));
    EXPECT_FALSE(engine->empty());
    if (fabric_first) {
      fabric.reset();
      EXPECT_EQ(destroyed, 3);
      engine.reset();
    } else {
      engine.reset();
      fabric.reset();
    }
  }
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(destroyed, 3);
}

TEST(FabricTeardown, ChunksInFlightFabricFirst) { teardown_in_flight(true); }

TEST(FabricTeardown, ChunksInFlightSimulatorFirst) {
  teardown_in_flight(false);
}

TEST(HostMemoryFabric, DefaultTargetReceivesUnclaimedWrites) {
  sim::Simulator sim;
  Fabric fabric(sim);
  int root = fabric.add_root();
  HostMemory host(sim);
  fabric.attach(host, root, gen2_x16());
  fabric.set_default_target(host);
  ScratchDevice dev(sim);
  fabric.attach(dev, root, gen2_x8());
  fabric.claim_range(dev, 0xF0000000, 0x1000);

  const std::uint64_t buffer = host.alloc(256);

  std::vector<std::uint8_t> payload(256);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(255 - i);
  fabric.post_write(dev, buffer, Payload::of(payload));
  sim.run();
  EXPECT_TRUE(std::ranges::equal(host.bytes(buffer, 256), payload));
}

TEST(HostMemoryFabric, ReadFromPinnedMemoryReturnsBytes) {
  sim::Simulator sim;
  Fabric fabric(sim);
  int root = fabric.add_root();
  HostMemory host(sim);
  fabric.attach(host, root, gen2_x16());
  fabric.set_default_target(host);
  ScratchDevice dev(sim);
  fabric.attach(dev, root, gen2_x8());
  fabric.claim_range(dev, 0xF0000000, 0x1000);

  const std::uint64_t buffer = host.alloc(512);
  std::span<std::uint8_t> bytes = host.bytes(buffer, 512);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 3);

  std::vector<std::uint8_t> got;
  fabric.read(dev, buffer, 512, true,
              [&](Payload p) { got = std::move(p.data); });
  sim.run();
  EXPECT_TRUE(std::ranges::equal(got, bytes));
}

/// One read of a host buffer holding `buffer` through a fresh fabric:
/// when it completed, and what it returned.
std::pair<Time, Payload> read_pinned(const std::vector<std::uint8_t>& buffer,
                                     bool with_data) {
  sim::Simulator sim;
  Fabric fabric(sim);
  int root = fabric.add_root();
  HostMemory host(sim);
  fabric.attach(host, root, gen2_x16());
  fabric.set_default_target(host);
  ScratchDevice dev(sim);
  fabric.attach(dev, root, gen2_x8());
  const std::uint64_t addr = host.alloc(buffer.size());
  std::ranges::copy(buffer, host.bytes(addr, buffer.size()).begin());
  std::pair<Time, Payload> out{-1, {}};
  fabric.read(dev, addr, static_cast<std::uint32_t>(buffer.size()), with_data,
              [&](Payload p) { out = {sim.now(), std::move(p)}; });
  sim.run();
  return out;
}

TEST(HostMemoryFabric, TimingOnlyReadOfPinnedMemoryKeepsDataReadTiming) {
  std::vector<std::uint8_t> buffer(6000);  // two completion chunks
  for (std::size_t i = 0; i < buffer.size(); ++i)
    buffer[i] = static_cast<std::uint8_t>(i * 7);
  const auto [t_data, data] = read_pinned(buffer, true);
  const auto [t_timing, timing] = read_pinned(buffer, false);
  EXPECT_GT(t_data, 0);
  EXPECT_EQ(t_timing, t_data);
  EXPECT_EQ(data.bytes, buffer.size());
  EXPECT_EQ(timing.bytes, buffer.size());
  EXPECT_EQ(data.data, buffer);
  EXPECT_TRUE(timing.data.empty());
}

TEST(HostMemoryFabric, UnpinnedReadsAreTimingOnly) {
  sim::Simulator sim;
  Fabric fabric(sim);
  int root = fabric.add_root();
  HostMemory host(sim);
  fabric.attach(host, root, gen2_x16());
  fabric.set_default_target(host);
  ScratchDevice dev(sim);
  fabric.attach(dev, root, gen2_x8());
  fabric.claim_range(dev, 0xF0000000, 0x1000);

  bool completed = false;
  fabric.read(dev, 0x12345000, 256, true, [&](Payload p) {
    completed = true;
    EXPECT_TRUE(p.data.empty());
    EXPECT_EQ(p.bytes, 256u);
  });
  sim.run();
  EXPECT_TRUE(completed);
}

}  // namespace
}  // namespace apn::pcie
