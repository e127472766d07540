#include <gtest/gtest.h>

#include "pcie/memory.hpp"

namespace apn::pcie {
namespace {

TEST(HostMemory, PinUnpinTracking) {
  sim::Simulator sim;
  HostMemory host(sim);
  std::vector<std::uint8_t> buf(4096);
  EXPECT_FALSE(host.is_pinned(reinterpret_cast<std::uint64_t>(buf.data()), 1));
  host.pin(buf.data(), buf.size());
  EXPECT_TRUE(
      host.is_pinned(reinterpret_cast<std::uint64_t>(buf.data()), 4096));
  // Interior range.
  EXPECT_TRUE(
      host.is_pinned(reinterpret_cast<std::uint64_t>(buf.data()) + 100, 1000));
  // Overrun past the end.
  EXPECT_FALSE(
      host.is_pinned(reinterpret_cast<std::uint64_t>(buf.data()) + 100, 4096));
  host.unpin(buf.data());
  EXPECT_FALSE(host.is_pinned(reinterpret_cast<std::uint64_t>(buf.data()), 1));
}

TEST(HostMemory, MultipleRegionsIndependent) {
  sim::Simulator sim;
  HostMemory host(sim);
  std::vector<std::uint8_t> a(128), b(128);
  host.pin(a.data(), a.size());
  host.pin(b.data(), b.size());
  EXPECT_TRUE(host.is_pinned(reinterpret_cast<std::uint64_t>(a.data()), 128));
  EXPECT_TRUE(host.is_pinned(reinterpret_cast<std::uint64_t>(b.data()), 128));
  host.unpin(a.data());
  EXPECT_FALSE(host.is_pinned(reinterpret_cast<std::uint64_t>(a.data()), 1));
  EXPECT_TRUE(host.is_pinned(reinterpret_cast<std::uint64_t>(b.data()), 128));
}

TEST(HostMemory, WriteOutsidePinnedIsDropped) {
  sim::Simulator sim;
  HostMemory host(sim);
  std::vector<std::uint8_t> buf(64, 7);
  // Not pinned: a functional write must NOT touch the bytes.
  Payload p;
  p.bytes = 64;
  p.data.assign(64, 9);
  host.handle_write(reinterpret_cast<std::uint64_t>(buf.data()),
                    std::move(p));
  for (auto v : buf) EXPECT_EQ(v, 7);
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

}  // namespace
}  // namespace apn::pcie
