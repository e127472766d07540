#include <gtest/gtest.h>

#include "common/range_allocator.hpp"
#include "gpu/device_memory.hpp"

namespace apn::gpu {
namespace {

TEST(DeviceMemory, ReadbackMatchesWrite) {
  DeviceMemory mem(1ull << 30);
  std::vector<std::uint8_t> data(100000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 7);
  mem.write(12345, data);
  std::vector<std::uint8_t> out(data.size());
  mem.read(12345, out);
  EXPECT_EQ(out, data);
}

TEST(DeviceMemory, UntouchedReadsZero) {
  DeviceMemory mem(1ull << 20);
  std::vector<std::uint8_t> out(256, 0xFF);
  mem.read(0, out);
  for (auto v : out) EXPECT_EQ(v, 0);
}

TEST(DeviceMemory, CrossPageWrites) {
  DeviceMemory mem(1ull << 21);
  // Straddle the 64 KB page boundary.
  std::vector<std::uint8_t> data(1000, 0x5A);
  std::uint64_t addr = DeviceMemory::kPageBytes - 500;
  mem.write(addr, data);
  std::vector<std::uint8_t> out(1000);
  mem.read(addr, out);
  EXPECT_EQ(out, data);
}

TEST(DeviceMemory, SparseResidency) {
  DeviceMemory mem(6ull << 30);  // a "6 GB" board costs nothing up front
  EXPECT_EQ(mem.resident_bytes(), 0u);
  std::vector<std::uint8_t> b(1, 1);
  mem.write(5ull << 30, b);
  EXPECT_EQ(mem.resident_bytes(), DeviceMemory::kPageBytes);
}

TEST(DeviceMemory, OutOfRangeThrows) {
  DeviceMemory mem(1 << 20);
  std::vector<std::uint8_t> b(100);
  EXPECT_THROW(mem.write((1 << 20) - 50, b), std::out_of_range);
  EXPECT_THROW(mem.read(1 << 20, b), std::out_of_range);
}

TEST(DeviceAllocator, AllocateAligned) {
  RangeAllocator alloc(0, 1 << 20, kAllocAlign);
  std::uint64_t a = alloc.allocate(100);
  std::uint64_t b = alloc.allocate(100);
  EXPECT_EQ(a % kAllocAlign, 0u);
  EXPECT_EQ(b % kAllocAlign, 0u);
  EXPECT_GE(b, a + 100);
}

TEST(DeviceAllocator, ReuseAfterFree) {
  RangeAllocator alloc(0, 1 << 20, kAllocAlign);
  std::uint64_t a = alloc.allocate(4096);
  alloc.allocate(4096);
  alloc.deallocate(a);
  std::uint64_t c = alloc.allocate(4096);
  EXPECT_EQ(c, a);  // first-fit reuses the hole
}

TEST(DeviceAllocator, CoalescesNeighbors) {
  RangeAllocator alloc(0, 1 << 20, kAllocAlign);
  std::uint64_t a = alloc.allocate(512);
  std::uint64_t b = alloc.allocate(512);
  std::uint64_t c = alloc.allocate(512);
  alloc.allocate(512);  // keep the tail busy
  alloc.deallocate(a);
  alloc.deallocate(c);
  alloc.deallocate(b);  // merges a+b+c into one block
  std::uint64_t big = alloc.allocate(1536);
  EXPECT_EQ(big, a);
}

TEST(DeviceAllocator, ExhaustionThrows) {
  RangeAllocator alloc(0, 1024, kAllocAlign);
  alloc.allocate(512);
  alloc.allocate(512);
  EXPECT_THROW(alloc.allocate(1), std::bad_alloc);
}

TEST(DeviceAllocator, DoubleFreeesAreRejected) {
  RangeAllocator alloc(0, 1 << 16, kAllocAlign);
  std::uint64_t a = alloc.allocate(256);
  alloc.deallocate(a);
  EXPECT_THROW(alloc.deallocate(a), std::invalid_argument);
}

TEST(DeviceAllocator, UsageAccounting) {
  RangeAllocator alloc(0, 1 << 20, kAllocAlign);
  EXPECT_EQ(alloc.used_bytes(), 0u);
  std::uint64_t a = alloc.allocate(1000);  // rounds to 1024
  EXPECT_EQ(alloc.used_bytes(), 1024u);
  EXPECT_EQ(alloc.live_blocks(), 1u);
  alloc.deallocate(a);
  EXPECT_EQ(alloc.used_bytes(), 0u);
}

TEST(DeviceAllocator, OwnerFindsTheLiveBlock) {
  // The same allocator serves host memory at 4 KB pages above a base.
  RangeAllocator alloc(1 << 20, 1 << 20, 4096);
  std::uint64_t a = alloc.allocate(100);
  std::uint64_t b = alloc.allocate(5000);
  EXPECT_EQ(a, 1u << 20);
  EXPECT_EQ(b, a + 4096);
  EXPECT_EQ(alloc.owner(a + 99, 1), a);
  EXPECT_FALSE(alloc.owner(a + 99, 2));  // past the requested size
  EXPECT_EQ(alloc.owner(b + 4096, 904), b);
  EXPECT_FALSE(alloc.owner(a - 1, 1));
  alloc.deallocate(a);
  EXPECT_FALSE(alloc.owner(a, 1));
}

}  // namespace
}  // namespace apn::gpu
