#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "pcie/memory.hpp"
#include "simcuda/runtime.hpp"

namespace apn::cuda {
namespace {

using units::us;

struct CudaFixture : ::testing::Test {
  sim::Simulator sim;
  pcie::Fabric fabric{sim};
  pcie::HostMemory host{sim};
  std::unique_ptr<gpu::Gpu> gpu0, gpu1;
  std::unique_ptr<Runtime> rt;

  void SetUp() override {
    int root = fabric.add_root();
    gpu0 = std::make_unique<gpu::Gpu>(sim, fabric, gpu::fermi_c2050(),
                                      0xE00000000000ull);
    gpu1 = std::make_unique<gpu::Gpu>(sim, fabric, gpu::fermi_c2070(),
                                      0xE00100000000ull);
    fabric.attach(*gpu0, root, pcie::gen2_x16());
    fabric.attach(*gpu1, root, pcie::gen2_x16());
    rt = std::make_unique<Runtime>(
        sim, host, std::vector<gpu::Gpu*>{gpu0.get(), gpu1.get()});
  }
};

TEST_F(CudaFixture, UvaAddressesAreDisjointPerDevice) {
  DevPtr a = rt->malloc_device(0, 4096);
  DevPtr b = rt->malloc_device(1, 4096);
  EXPECT_GE(a, Runtime::kUvaBase);
  EXPECT_GE(b, Runtime::kUvaBase + Runtime::kUvaStride);
  PointerInfo ia = rt->pointer_info(a);
  PointerInfo ib = rt->pointer_info(b);
  EXPECT_TRUE(ia.is_device);
  EXPECT_EQ(ia.device, 0);
  EXPECT_TRUE(ib.is_device);
  EXPECT_EQ(ib.device, 1);
}

TEST_F(CudaFixture, HostPointersClassifiedAsHost) {
  PointerInfo info = rt->pointer_info(host.alloc(64));
  EXPECT_FALSE(info.is_device);
}

TEST_F(CudaFixture, P2pTokensMatchAllocation) {
  DevPtr a = rt->malloc_device(1, 128 * 1024);
  P2pTokens t = rt->get_p2p_tokens(a, 128 * 1024);
  EXPECT_EQ(t.device, 1);
  EXPECT_EQ(t.size, 128u * 1024u);
  EXPECT_EQ(t.page_count(), 2u);
  EXPECT_THROW(rt->get_p2p_tokens(host.alloc(4), 4), std::invalid_argument);
}

TEST_F(CudaFixture, FreeReturnsMemory) {
  DevPtr a = rt->malloc_device(0, 1 << 20);
  std::uint64_t used = rt->device(0).allocator().used_bytes();
  EXPECT_GE(used, 1u << 20);
  rt->free_device(a);
  EXPECT_EQ(rt->device(0).allocator().used_bytes(), 0u);
}

TEST_F(CudaFixture, MemcpySyncMovesBytesH2DAndBack) {
  DevPtr d = rt->malloc_device(0, 1024);
  const std::uint64_t src = host.alloc(1024);
  const std::uint64_t dst = host.alloc(1024);
  std::span<std::uint8_t> in = host.bytes(src, 1024);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<std::uint8_t>(i * 11);

  [](Runtime& rt, DevPtr d, std::uint64_t src,
     std::uint64_t dst) -> sim::Coro {
    co_await rt.memcpy_sync(d, src, 1024);
    co_await rt.memcpy_sync(dst, d, 1024);
  }(*rt, d, src, dst);
  sim.run();
  EXPECT_TRUE(std::ranges::equal(host.bytes(dst, 1024), in));
}

TEST_F(CudaFixture, MemcpySyncCostsOverheadPlusTransfer) {
  DevPtr d = rt->malloc_device(0, 1 << 20);
  const std::uint64_t buf = host.alloc(1 << 20);
  Time small_done = -1, large_done = -1;

  [](Runtime& rt, sim::Simulator& sim, DevPtr d, std::uint64_t buf,
     Time& small_done, Time& large_done) -> sim::Coro {
    Time t0 = sim.now();
    co_await rt.memcpy_sync(buf, d, 32);
    small_done = sim.now() - t0;
    t0 = sim.now();
    co_await rt.memcpy_sync(buf, d, 1 << 20);
    large_done = sim.now() - t0;
  }(*rt, sim, d, buf, small_done, large_done);
  sim.run();

  // Small D2H copy: dominated by the ~9 us sync overhead (the paper's
  // "single cudaMemcpy overhead ... around 10 us").
  EXPECT_GT(small_done, us(8.0));
  EXPECT_LT(small_done, us(11.0));
  // Large copy: overhead + 1 MiB / 5.5 GB/s ~ 200 us.
  EXPECT_GT(large_done, us(190));
  EXPECT_LT(large_done, us(215));
}

TEST_F(CudaFixture, DeviceToDeviceCopy) {
  DevPtr a = rt->malloc_device(0, 4096);
  DevPtr b = rt->malloc_device(0, 4096);
  std::vector<std::uint8_t> src(4096, 0x42);
  rt->upload(a, std::as_bytes(std::span(src)));
  [](Runtime& rt, DevPtr a, DevPtr b) -> sim::Coro {
    co_await rt.memcpy_sync(b, a, 4096);
  }(*rt, a, b);
  sim.run();
  std::vector<std::uint8_t> out(4096);
  rt->download(b, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out, src);
}

TEST_F(CudaFixture, HostToHostThroughCudaIsRejected) {
  EXPECT_THROW(rt->classify(host.alloc(4), host.alloc(4)),
               std::invalid_argument);
}

TEST_F(CudaFixture, HostRangeOutsideAllocationsThrows) {
  DevPtr d = rt->malloc_device(0, 4096);
  const std::uint64_t buf = host.alloc(64);
  // CPU-side copies (memcpy_sync/memcpy_async data and staged copies all
  // go through move_bytes) are bounds-checked: a stray address, or a range
  // running past its allocation, is an error rather than a silent write.
  EXPECT_THROW(rt->move_bytes(0x5000, d, 64), std::out_of_range);
  EXPECT_THROW(rt->move_bytes(buf, d, 65), std::out_of_range);
  EXPECT_THROW(rt->move_bytes(d, buf + 32, 64), std::out_of_range);
  host.free(buf);
  EXPECT_THROW(rt->move_bytes(buf, d, 64), std::out_of_range);
}

TEST_F(CudaFixture, ZerosOverZerosMoveNothing) {
  DevPtr d = rt->malloc_device(0, 1 << 20);
  const std::uint64_t buf = host.alloc(1 << 20);
  // Neither side was ever written: staging copies back nothing.
  rt->move_bytes(buf, d, 1 << 20);
  rt->move_bytes(d, buf, 1 << 20);
  EXPECT_EQ(host.backed_bytes(), 0u);
  EXPECT_EQ(rt->device(0).memory().resident_bytes(), 0u);
  // Once the device side holds data, the copy lands.
  std::vector<std::uint8_t> ones(16, 1);
  rt->upload(d + 100, std::as_bytes(std::span(ones)));
  rt->move_bytes(buf, d, 1 << 20);
  EXPECT_EQ(host.bytes(buf + 100, 16)[15], 1);
  EXPECT_EQ(host.bytes(buf, 1)[0], 0);
}

TEST_F(CudaFixture, Bar1MapChargesReconfigurationTime) {
  DevPtr d = rt->malloc_device(0, 1 << 20);
  auto fut = rt->bar1_map_async(d, 1 << 20);
  sim.run();
  ASSERT_TRUE(fut.ready());
  EXPECT_GE(sim.now(), units::ms(1));  // full GPU reconfiguration
  EXPECT_GE(fut.get().pcie_addr,
            gpu0->mmio_base() + gpu::GpuMmio::kBar1Aperture);
}

}  // namespace
}  // namespace apn::cuda
