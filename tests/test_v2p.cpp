// The 4-level V2P page table (HOST_V2P / GPU_V2P firmware structures).
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/v2p.hpp"
#include "host_bytes.hpp"

namespace apn::core {
namespace {

TEST(PageTable, MapLookupRoundTrip) {
  PageTable t(12);
  t.map(0x7f0000001000, 0x100000, 4096);
  auto phys = t.lookup(0x7f0000001000);
  ASSERT_TRUE(phys.has_value());
  EXPECT_EQ(*phys, 0x100000u);
  // In-page offset preserved.
  EXPECT_EQ(*t.lookup(0x7f0000001234), 0x100234u);
}

TEST(PageTable, UnmappedReturnsNullopt) {
  PageTable t(12);
  EXPECT_FALSE(t.lookup(0x1000).has_value());
  t.map(0x2000, 0x9000, 4096);
  EXPECT_FALSE(t.lookup(0x1000).has_value());
  EXPECT_FALSE(t.lookup(0x3000).has_value());
}

TEST(PageTable, MultiPageRangeContiguousPhysical) {
  PageTable t(12);
  t.map(0x10000, 0x800000, 5 * 4096);
  for (int p = 0; p < 5; ++p) {
    auto phys = t.lookup(0x10000 + static_cast<std::uint64_t>(p) * 4096 + 7);
    ASSERT_TRUE(phys.has_value());
    EXPECT_EQ(*phys, 0x800000u + static_cast<std::uint64_t>(p) * 4096 + 7);
  }
  EXPECT_EQ(t.mapped_pages(), 5u);
}

TEST(PageTable, PartialLengthCoversLastPage) {
  PageTable t(12);
  t.map(0x10000, 0x0, 4097);  // 1 byte into the second page
  EXPECT_TRUE(t.is_mapped(0x10000));
  EXPECT_TRUE(t.is_mapped(0x11000));
  EXPECT_FALSE(t.is_mapped(0x12000));
}

TEST(PageTable, UnmapRemovesOnlyTargetRange) {
  PageTable t(12);
  t.map(0x10000, 0x0, 4 * 4096);
  t.unmap(0x11000, 2 * 4096);
  EXPECT_TRUE(t.is_mapped(0x10000));
  EXPECT_FALSE(t.is_mapped(0x11000));
  EXPECT_FALSE(t.is_mapped(0x12000));
  EXPECT_TRUE(t.is_mapped(0x13000));
  EXPECT_EQ(t.mapped_pages(), 2u);
}

TEST(PageTable, RemapOverwrites) {
  PageTable t(16);
  t.map(0xC00000000000ull, 0x0, 65536);
  t.map(0xC00000000000ull, 0xA0000, 65536);
  EXPECT_EQ(*t.lookup(0xC00000000000ull), 0xA0000u);
  EXPECT_EQ(t.mapped_pages(), 1u);
}

TEST(PageTable, GpuPageGranularity64K) {
  PageTable t(16);
  EXPECT_EQ(t.page_bytes(), 65536u);
  t.map(0xC00000000000ull, 0x0, 200000);  // 4 x 64 KB pages
  EXPECT_EQ(t.mapped_pages(), 4u);
  EXPECT_EQ(*t.lookup(0xC00000000000ull + 70000), 70000u);
}

TEST(PageTable, SparseAddressesShareNodesWhenClose) {
  PageTable t(12);
  t.map(0x1000, 0x0, 4096);
  std::size_t nodes_one = t.resident_nodes();
  t.map(0x2000, 0x1000, 4096);  // same leaf node
  EXPECT_EQ(t.resident_nodes(), nodes_one);
  t.map(0x7f0000000000, 0x2000, 4096);  // far away: new interior path
  EXPECT_GT(t.resident_nodes(), nodes_one);
}

TEST(PageTable, RandomizedMapLookupConsistency) {
  Rng rng(2026);
  PageTable t(12);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mapped;
  for (int i = 0; i < 300; ++i) {
    std::uint64_t v = (rng.next_u64() & 0xFFFFFFFFF000ull);
    std::uint64_t p = (rng.next_u64() & 0xFFFFFFF000ull);
    t.map(v, p, 4096);
    mapped.emplace_back(v, p);
  }
  // Later mappings may overwrite earlier ones at the same vaddr; check in
  // reverse insertion order with a seen-set.
  std::set<std::uint64_t> seen;
  for (auto it = mapped.rbegin(); it != mapped.rend(); ++it) {
    if (!seen.insert(it->first).second) continue;
    auto phys = t.lookup(it->first + 123);
    ASSERT_TRUE(phys.has_value());
    EXPECT_EQ(*phys, it->second + 123);
  }
}

TEST(CardV2p, RegistrationPopulatesTables) {
  sim::Simulator sim;
  auto c = cluster::Cluster::make_cluster_i(sim, 1, ApenetParams{}, false);
  const std::uint64_t haddr = c->node(0).hostmem().alloc(3 * 4096);
  cuda::DevPtr gpu_buf = c->node(0).cuda().malloc_device(0, 256 * 1024);
  [](cluster::Cluster* c, std::uint64_t hb, cuda::DevPtr gb) -> sim::Coro {
    co_await c->rdma(0).register_buffer(hb, 3 * 4096, MemType::kHost);
    co_await c->rdma(0).register_buffer(gb, 256 * 1024, MemType::kGpu);
  }(c.get(), haddr, gpu_buf);
  sim.run();

  ApenetCard& card = c->node(0).card();
  // Host table: identity translation, 4 KB pages.
  EXPECT_TRUE(card.host_v2p().is_mapped(haddr));
  EXPECT_EQ(*card.host_v2p().lookup(haddr + 100), haddr + 100);
  // GPU table: UVA -> device offset, 64 KB pages, 4 pages for 256 KB.
  const PageTable* gt = card.gpu_v2p(&c->node(0).gpu(0));
  ASSERT_NE(gt, nullptr);
  EXPECT_GE(gt->mapped_pages(), 4u);
  cuda::P2pTokens tok = c->node(0).cuda().get_p2p_tokens(gpu_buf, 1);
  EXPECT_EQ(*gt->lookup(gpu_buf), tok.dev_offset);

  c->rdma(0).deregister_buffer(haddr);
  EXPECT_FALSE(card.host_v2p().is_mapped(haddr));
}

TEST(CardV2p, HostScatterSplitsWritesAtPageBoundaries) {
  // A 4 KB packet landing at a non-page-aligned host address must still
  // deliver every byte (two scatter entries on the real card).
  sim::Simulator sim;
  auto c = cluster::Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 13 + 1);
  const std::uint64_t src = test_util::host_buf(c->node(0).hostmem(), data);
  // Target straddles a page boundary inside the registered region.
  const std::uint64_t base = c->node(1).hostmem().alloc(3 * 4096);
  const std::uint64_t target = base + 4096 - 1000;
  [](cluster::Cluster* c, std::uint64_t base, std::uint64_t target,
     std::uint64_t src) -> sim::Coro {
    co_await c->rdma(1).register_buffer(base, 3 * 4096, MemType::kHost);
    c->rdma(0).put(c->coord(1), src, 4096, target, MemType::kHost);
    co_await c->rdma(1).events().pop();
  }(c.get(), base, target, src);
  sim.run();
  const std::vector<std::uint8_t> got =
      test_util::host_bytes(c->node(1).hostmem(), target, 4096);
  for (std::size_t i = 0; i < data.size(); ++i)
    ASSERT_EQ(got[i], data[i]) << "byte " << i;
}

}  // namespace
}  // namespace apn::core
