#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "host_bytes.hpp"

namespace apn::core {
namespace {

using cluster::Cluster;
using test_util::host_buf;
using test_util::host_bytes;
using units::us;

struct RdmaFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<Cluster> c;

  void SetUp() override {
    c = Cluster::make_cluster_i(sim, 2, ApenetParams{}, /*with_ib=*/false);
  }
  pcie::HostMemory& host(int node) { return c->node(node).hostmem(); }
};

TEST_F(RdmaFixture, HostPutDeliversDataEndToEnd) {
  std::vector<std::uint8_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 13);
  const std::uint64_t src = host_buf(host(0), data);
  const std::uint64_t dst = host(1).alloc(data.size());

  [](Cluster* c, std::uint64_t src, std::uint64_t dst,
     std::uint64_t n) -> sim::Coro {
    RdmaDevice& r1 = c->rdma(1);
    co_await r1.register_buffer(dst, n, MemType::kHost);
    RdmaDevice& r0 = c->rdma(0);
    r0.put(c->coord(1), src, n, dst, MemType::kHost);
    RdmaEvent ev = co_await r1.events().pop();
    EXPECT_EQ(ev.bytes, n);
    EXPECT_EQ(ev.peer, c->coord(0));
  }(c.get(), src, dst, data.size());
  sim.run();
  EXPECT_EQ(host_bytes(host(1), dst, data.size()), data);
}

TEST_F(RdmaFixture, GpuToGpuPutDeliversData) {
  cuda::Runtime& cu0 = c->node(0).cuda();
  cuda::Runtime& cu1 = c->node(1).cuda();
  cuda::DevPtr src = cu0.malloc_device(0, 8192);
  cuda::DevPtr dst = cu1.malloc_device(0, 8192);
  std::vector<std::uint8_t> data(8192);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i % 251);
  cu0.upload(src, std::as_bytes(std::span(data)));

  [](Cluster* c, cuda::DevPtr src, cuda::DevPtr dst) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, 8192, MemType::kGpu);
    c->rdma(0).put(c->coord(1), src, 8192, dst, MemType::kGpu);
    co_await c->rdma(1).events().pop();
  }(c.get(), src, dst);
  sim.run();

  std::vector<std::uint8_t> out(8192);
  cu1.download(dst, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out, data);
}

TEST_F(RdmaFixture, UnregisteredDestinationIsDropped) {
  const std::uint64_t src =
      host_buf(host(0), std::vector<std::uint8_t>(256, 1));
  const std::uint64_t dst = host(1).alloc(256);
  [](Cluster* c, std::uint64_t src, std::uint64_t dst) -> sim::Coro {
    auto p = c->rdma(0).put(c->coord(1), src, 256, dst, MemType::kHost);
    co_await p.tx_done->wait();
  }(c.get(), src, dst);
  sim.run();
  EXPECT_EQ(c->node(1).card().rx_drops(), 1u);
  EXPECT_EQ(host(1).backed_bytes(), 0u);  // nothing written
}

TEST_F(RdmaFixture, RegistrationCacheHitIsFree) {
  cuda::DevPtr buf = c->node(0).cuda().malloc_device(0, 1 << 20);
  Time first = -1, second = -1;
  [](Cluster* c, cuda::DevPtr buf, Time* first, Time* second) -> sim::Coro {
    sim::Simulator& sim = c->simulator();
    RdmaDevice& r = c->rdma(0);
    Time t0 = sim.now();
    co_await r.register_buffer(buf, 1 << 20, MemType::kGpu);
    *first = sim.now() - t0;
    t0 = sim.now();
    co_await r.register_buffer(buf, 1 << 20, MemType::kGpu);
    *second = sim.now() - t0;
  }(c.get(), buf, &first, &second);
  sim.run();
  EXPECT_GT(first, us(40));  // token retrieval + V2P programming
  EXPECT_EQ(second, 0);      // cache hit
  EXPECT_EQ(c->rdma(0).registration_cache_hits(), 1u);
  EXPECT_EQ(c->rdma(0).registration_cache_misses(), 1u);
}

TEST_F(RdmaFixture, GpuSourceMappedOnTheFlyOnFirstPut) {
  cuda::Runtime& cu0 = c->node(0).cuda();
  cuda::DevPtr src = cu0.malloc_device(0, 4096);
  const std::uint64_t dst = host(1).alloc(4096);
  EXPECT_FALSE(c->rdma(0).is_registered(src));

  [](Cluster* c, cuda::DevPtr src, std::uint64_t dst) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, 4096, MemType::kHost);
    // kAuto: the library discovers this is device memory via UVA and maps
    // it on the fly (paper §IV-A).
    c->rdma(0).put(c->coord(1), src, 4096, dst, MemType::kAuto);
    co_await c->rdma(1).events().pop();
  }(c.get(), src, dst);
  sim.run();
  EXPECT_TRUE(c->rdma(0).is_registered(src));
}

TEST_F(RdmaFixture, DeregisterRemovesFromBufList) {
  const std::uint64_t buf = host(0).alloc(4096);
  [](Cluster* c, std::uint64_t buf) -> sim::Coro {
    co_await c->rdma(0).register_buffer(buf, 4096, MemType::kHost);
  }(c.get(), buf);
  sim.run();
  EXPECT_EQ(c->node(0).card().buffer_count(), 1u);
  c->rdma(0).deregister_buffer(buf);
  EXPECT_EQ(c->node(0).card().buffer_count(), 0u);
  EXPECT_FALSE(c->rdma(0).is_registered(buf));
}

TEST_F(RdmaFixture, MultiplePutsCompleteInOrder) {
  const std::uint64_t dst = host(1).alloc(64 * 16);
  std::vector<std::uint64_t> srcs;
  for (int i = 0; i < 16; ++i) {
    const auto fill = static_cast<std::uint8_t>(i + 1);
    srcs.push_back(host_buf(host(0), std::vector<std::uint8_t>(64, fill)));
  }

  [](Cluster* c, std::vector<std::uint64_t>* srcs,
     std::uint64_t dst) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, 64 * 16, MemType::kHost);
    for (std::size_t i = 0; i < srcs->size(); ++i) {
      c->rdma(0).put(c->coord(1), (*srcs)[i], 64, dst + i * 64,
                     MemType::kHost);
    }
    for (std::size_t i = 0; i < srcs->size(); ++i)
      co_await c->rdma(1).events().pop();
  }(c.get(), &srcs, dst);
  sim.run();
  const std::vector<std::uint8_t> got = host_bytes(host(1), dst, 64 * 16);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i) * 64],
              static_cast<std::uint8_t>(i + 1));
}

TEST_F(RdmaFixture, LargeMessageFragmentsAndReassembles) {
  const std::uint64_t n = 1 << 20;  // 256 packets
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 24);
  const std::uint64_t src = host_buf(host(0), data);
  const std::uint64_t dst = host(1).alloc(n);
  [](Cluster* c, std::uint64_t src, std::uint64_t dst,
     std::uint64_t n) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, n, MemType::kHost);
    c->rdma(0).put(c->coord(1), src, n, dst, MemType::kHost);
    RdmaEvent ev = co_await c->rdma(1).events().pop();
    EXPECT_EQ(ev.bytes, n);
  }(c.get(), src, dst, n);
  sim.run();
  EXPECT_EQ(host_bytes(host(1), dst, n), data);
  EXPECT_GE(c->node(1).card().packets_received(), 256u);
}

}  // namespace
}  // namespace apn::core
