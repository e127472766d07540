#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "pcie/memory.hpp"

namespace apn::pcie {
namespace {

TEST(HostMemory, AllocFreeTracking) {
  sim::Simulator sim;
  HostMemory host(sim);
  const std::uint64_t buf = host.alloc(4096);
  EXPECT_EQ(buf % HostMemory::kPageBytes, 0u);
  EXPECT_EQ(host.bytes(buf, 4096).size(), 4096u);
  // Interior range.
  EXPECT_EQ(host.bytes(buf + 100, 1000).size(), 1000u);
  // Overrun past the end.
  EXPECT_THROW(host.bytes(buf + 100, 4096), std::out_of_range);
  host.free(buf);
  EXPECT_THROW(host.bytes(buf, 1), std::out_of_range);
  EXPECT_EQ(host.backed_bytes(), 0u);
}

TEST(HostMemory, MultipleAllocationsIndependent) {
  sim::Simulator sim;
  HostMemory host(sim);
  const std::uint64_t a = host.alloc(128);
  const std::uint64_t b = host.alloc(128);
  EXPECT_GE(b, a + HostMemory::kPageBytes);  // never share a page
  // A range spanning both allocations lies in neither.
  EXPECT_THROW(host.bytes(a, b - a + 1), std::out_of_range);
  host.bytes(b, 128)[0] = 5;
  host.free(a);
  EXPECT_THROW(host.bytes(a, 1), std::out_of_range);
  EXPECT_EQ(host.bytes(b, 128)[0], 5);
}

TEST(HostMemory, WriteOutsideAllocationsIsDropped) {
  sim::Simulator sim;
  HostMemory host(sim);
  const std::uint64_t buf = host.alloc(64);
  std::ranges::fill(host.bytes(buf, 64), 7);
  // Past the allocation: a functional write must NOT touch any bytes.
  Payload p;
  p.bytes = 64;
  p.data.assign(64, 9);
  host.handle_write(buf + 32, std::move(p));
  for (auto v : host.bytes(buf, 64)) EXPECT_EQ(v, 7);
  EXPECT_EQ(host.backed_bytes(), 64u);
}

TEST(HostMemory, BackingOnlyOnFirstDataUse) {
  sim::Simulator sim;
  HostMemory host(sim);
  const std::uint64_t buf = host.alloc(1 << 20);
  // Never written: a data read returns zeros and backs nothing.
  Payload p = Payload::timing(512);
  host.read(buf + 4096, p);
  EXPECT_EQ(p.data, std::vector<std::uint8_t>(512, 0));
  EXPECT_FALSE(host.has_backing(buf, 1));
  EXPECT_EQ(host.backed_bytes(), 0u);
  // The first data-carrying DMA write backs the whole allocation.
  host.handle_write(buf + 8, Payload::of({1, 2, 3}));
  EXPECT_TRUE(host.has_backing(buf, 1));
  EXPECT_EQ(host.backed_bytes(), 1u << 20);
  EXPECT_EQ(host.bytes(buf + 9, 1)[0], 2);
  // A stray range is timing-only for DMA, but an error for the CPU.
  Payload stray = Payload::timing(16);
  host.read(0x5000, stray);
  EXPECT_TRUE(stray.data.empty());
  EXPECT_THROW(host.has_backing(0x5000, 16), std::out_of_range);
}

TEST(HostMemory, AddressesFollowCallOrderOnly) {
  sim::Simulator sim;
  HostMemory h1(sim), h2(sim);
  for (std::uint64_t n : {64u, 10000u, 1u, 4096u})
    EXPECT_EQ(h1.alloc(n), h2.alloc(n));
  EXPECT_EQ(h1.alloc(1), HostMemory::kBase + 6 * HostMemory::kPageBytes);
}

TEST(HostMemory, ReadCompletionsSerializeAtMemoryRate) {
  sim::Simulator sim;
  HostMemoryParams params;
  params.read_rate = Rate(1e9);
  params.read_latency = units::us(1);
  HostMemory host(sim, params);
  std::vector<Time> done;
  struct Ctx {
    sim::Simulator* sim;
    std::vector<Time>* done;
  } ctx{&sim, &done};
  const ReadReply record{[](void* c, Payload) {
                           auto* ctx = static_cast<Ctx*>(c);
                           ctx->done->push_back(ctx->sim->now());
                         },
                         &ctx};
  for (int i = 0; i < 3; ++i) host.handle_read(0x5000, 1000, true, record);
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  // Latency pipelines; the 1 us streaming serializes on the port.
  EXPECT_EQ(done[0], units::us(2));
  EXPECT_EQ(done[1], units::us(3));
  EXPECT_EQ(done[2], units::us(4));
}

TEST(HostMemory, ReadCompletesAtLatencyThenPortRate) {
  // A read queued at t completes at max(t + latency, prev) + len / rate:
  // back-to-back reads, reads that overlap a busy port, a zero-length
  // read and reads after idle gaps.
  sim::Simulator sim;
  HostMemoryParams params;
  params.read_rate = Rate(3e9);
  params.read_latency = units::ns(300);
  HostMemory host(sim, params);
  struct Read {
    Time at;
    std::uint32_t len;
  };
  const std::vector<Read> reads = {
      {0, 4096},        {0, 4096},           {0, 512},
      {units::ns(900), 100}, {units::ns(1500), 0}, {units::us(5), 4096},
      {units::us(5) + 1, 64}, {units::us(40), 1000}, {units::us(40), 4096}};
  std::vector<Time> done;
  struct Ctx {
    sim::Simulator* sim;
    std::vector<Time>* done;
  } ctx{&sim, &done};
  const ReadReply record{[](void* c, Payload) {
                           auto* ctx = static_cast<Ctx*>(c);
                           ctx->done->push_back(ctx->sim->now());
                         },
                         &ctx};
  for (const Read& r : reads)
    sim.at(r.at, [&host, r, record] {
      host.handle_read(0x5000, r.len, false, record);
    });
  sim.run();

  std::vector<Time> expect;
  Time prev = 0;
  for (const Read& r : reads) {
    prev = std::max(r.at + params.read_latency, prev) +
           units::transfer_time(Bytes(r.len), params.read_rate);
    expect.push_back(prev);
  }
  EXPECT_EQ(done, expect);
}

}  // namespace
}  // namespace apn::pcie
