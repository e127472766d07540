// The BAR1 transmission path (MemType::kGpuBar1): plain PCIe memory reads
// through a mapped aperture instead of the P2P protocol — slow on Fermi,
// competitive on Kepler (paper §III / Table I).
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "host_bytes.hpp"

namespace apn::core {
namespace {

using cluster::Cluster;

std::unique_ptr<Cluster> gpu_cluster(sim::Simulator& sim,
                                     const gpu::GpuArch& arch, int nodes,
                                     bool flush) {
  cluster::NodeConfig cfg;
  cfg.gpus = {arch};
  cfg.has_apenet = true;
  cfg.has_ib = false;
  ApenetParams p;
  p.flush_at_switch = flush;
  return std::make_unique<Cluster>(
      sim, nodes == 1 ? TorusShape{1, 1, 1} : TorusShape{2, 1, 1}, cfg, p);
}

TEST(Bar1Put, DataIntegrityEndToEnd) {
  sim::Simulator sim;
  auto c = gpu_cluster(sim, gpu::kepler_k20(), 2, false);
  const std::uint64_t n = 256 * 1024;
  cuda::DevPtr src = c->node(0).cuda().malloc_device(0, n);
  cuda::DevPtr dst = c->node(1).cuda().malloc_device(0, n);
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  c->node(0).cuda().upload(src, std::as_bytes(std::span(data)));
  [](Cluster* c, cuda::DevPtr src, cuda::DevPtr dst,
     std::uint64_t n) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, n, MemType::kGpu);
    c->rdma(0).put(c->coord(1), src, n, dst, MemType::kGpuBar1);
    co_await c->rdma(1).events().pop();
  }(c.get(), src, dst, n);
  sim.run();
  std::vector<std::uint8_t> out(n);
  c->node(1).cuda().download(dst, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out, data);
}

TEST(Bar1Put, FermiBar1IsFarSlowerThanP2p) {
  auto bw = [](MemType type) {
    sim::Simulator sim;
    auto c = gpu_cluster(sim, gpu::fermi_c2050(), 1, true);
    return cluster::loopback_bandwidth(*c, 0, type, 1 << 20, 4).mbps;
  };
  double p2p = bw(MemType::kGpu);
  double bar1 = bw(MemType::kGpuBar1);
  EXPECT_GT(p2p, bar1 * 8);  // paper: 1.5 GB/s vs 150 MB/s
  EXPECT_GT(bar1, 120.0);
  EXPECT_LT(bar1, 180.0);
}

TEST(Bar1Put, KeplerBar1ApproachesP2p) {
  auto bw = [](MemType type) {
    sim::Simulator sim;
    auto c = gpu_cluster(sim, gpu::kepler_k20(), 1, true);
    return cluster::loopback_bandwidth(*c, 0, type, 1 << 20, 12).mbps;
  };
  double p2p = bw(MemType::kGpu);
  double bar1 = bw(MemType::kGpuBar1);
  EXPECT_GT(bar1, p2p * 0.8);  // paper Table I: both ~1.6 GB/s
}

TEST(Bar1Put, MappingIsCachedAcrossPuts) {
  sim::Simulator sim;
  auto c = gpu_cluster(sim, gpu::kepler_k20(), 2, false);
  cuda::DevPtr src = c->node(0).cuda().malloc_device(0, 4096);
  cuda::DevPtr dst = c->node(1).cuda().malloc_device(0, 4096);
  Time first = 0, second = 0;
  [](Cluster* c, cuda::DevPtr src, cuda::DevPtr dst, Time* first,
     Time* second) -> sim::Coro {
    sim::Simulator& sim = c->simulator();
    co_await c->rdma(1).register_buffer(dst, 4096, MemType::kGpu);
    Time t0 = sim.now();
    c->rdma(0).put(c->coord(1), src, 4096, dst, MemType::kGpuBar1, false);
    co_await c->rdma(1).events().pop();
    *first = sim.now() - t0;
    t0 = sim.now();
    c->rdma(0).put(c->coord(1), src, 4096, dst, MemType::kGpuBar1, false);
    co_await c->rdma(1).events().pop();
    *second = sim.now() - t0;
  }(c.get(), src, dst, &first, &second);
  sim.run();
  // First put pays registration + the ~1 ms BAR1 reconfiguration.
  EXPECT_GT(first, units::ms(1));
  EXPECT_LT(second, units::us(30));
  EXPECT_EQ(c->node(0).gpu(0).bar1_mapped_bytes(), units::KiB(64));
}

TEST(Bar1Put, OffsetWithinMappedBufferWorks) {
  sim::Simulator sim;
  auto c = gpu_cluster(sim, gpu::kepler_k20(), 2, false);
  const std::uint64_t n = 128 * 1024;
  cuda::DevPtr src = c->node(0).cuda().malloc_device(0, n);
  cuda::DevPtr dst = c->node(1).cuda().malloc_device(0, n);
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<std::uint8_t>(i % 211);
  c->node(0).cuda().upload(src, std::as_bytes(std::span(data)));
  [](Cluster* c, cuda::DevPtr src, cuda::DevPtr dst,
     std::uint64_t n) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, n, MemType::kGpu);
    // Register the whole source once, then put an interior slice: the
    // second put must reuse the existing BAR1 mapping at an offset.
    co_await c->rdma(0).register_buffer(src, n, MemType::kGpu);
    c->rdma(0).put(c->coord(1), src + 4096, 8192, dst + 4096,
                   MemType::kGpuBar1);
    co_await c->rdma(1).events().pop();
  }(c.get(), src, dst, n);
  sim.run();
  std::vector<std::uint8_t> out(8192);
  c->node(1).cuda().download(dst + 4096,
                             std::as_writable_bytes(std::span(out)));
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + 4096));
}

TEST(RdmaWaitEvent, ChargesPollCostAndDeliversEvent) {
  sim::Simulator sim;
  auto c = cluster::Cluster::make_cluster_i(sim, 2, ApenetParams{}, false);
  const std::vector<std::uint8_t> data(64, 0xAD);
  const std::uint64_t src = test_util::host_buf(c->node(0).hostmem(), data);
  const std::uint64_t dst = c->node(1).hostmem().alloc(64);
  Time got_at = -1;
  RdmaEvent ev{};
  [](cluster::Cluster* c, std::uint64_t src, std::uint64_t dst,
     Time* got_at, RdmaEvent* out) -> sim::Coro {
    co_await c->rdma(1).register_buffer(dst, 64, MemType::kHost);
    c->rdma(0).put(c->coord(1), src, 64, dst, MemType::kHost);
    *out = co_await c->rdma(1).wait_event();
    *got_at = c->simulator().now();
  }(c.get(), src, dst, &got_at, &ev);
  sim.run();
  EXPECT_EQ(ev.bytes, 64u);
  EXPECT_GT(got_at, 0);
  EXPECT_EQ(test_util::host_bytes(c->node(1).hostmem(), dst, 64), data);
}

}  // namespace
}  // namespace apn::core
