#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "pcie/memory.hpp"
#include "simcuda/runtime.hpp"

namespace apn::cuda {
namespace {

using units::us;

struct StreamFixture : ::testing::Test {
  sim::Simulator sim;
  pcie::Fabric fabric{sim};
  pcie::HostMemory host{sim};
  std::unique_ptr<gpu::Gpu> g;
  std::unique_ptr<Runtime> rt;

  void SetUp() override {
    fabric.add_root();
    g = std::make_unique<gpu::Gpu>(sim, fabric, gpu::fermi_c2050(),
                                   0xE00000000000ull);
    fabric.attach(*g, 0, pcie::gen2_x16());
    rt = std::make_unique<Runtime>(sim, host,
                                   std::vector<gpu::Gpu*>{g.get()});
  }
};

TEST_F(StreamFixture, KernelsOnOneStreamSerialize) {
  Stream s(*rt, 0);
  Time first = -1, second = -1;
  Done d1 = s.launch_kernel(us(10));
  Done d2 = s.launch_kernel(us(10));
  [](Done d, sim::Simulator& sim, Time& out) -> sim::Coro {
    co_await d;
    out = sim.now();
  }(d1, sim, first);
  [](Done d, sim::Simulator& sim, Time& out) -> sim::Coro {
    co_await d;
    out = sim.now();
  }(d2, sim, second);
  sim.run();
  EXPECT_NEAR(units::to_us(first), 10.0, 1.0);
  EXPECT_NEAR(units::to_us(second), 20.0, 1.0);
}

TEST_F(StreamFixture, IndependentStreamsShareTheComputeEngine) {
  // One compute engine: kernels from two streams still serialize on it,
  // but neither stream blocks the other's *enqueue*.
  Stream a(*rt, 0), b(*rt, 0);
  Done da = a.launch_kernel(us(10));
  Done db = b.launch_kernel(us(10));
  Time ta = -1, tb = -1;
  [](Done d, sim::Simulator& sim, Time& out) -> sim::Coro {
    co_await d;
    out = sim.now();
  }(da, sim, ta);
  [](Done d, sim::Simulator& sim, Time& out) -> sim::Coro {
    co_await d;
    out = sim.now();
  }(db, sim, tb);
  sim.run();
  EXPECT_NEAR(units::to_us(std::max(ta, tb)), 20.0, 1.0);
}

TEST_F(StreamFixture, CopyAndComputeOverlapAcrossStreams) {
  // Kernel on one stream, async memcpy on another: the copy engine and
  // the compute engine are distinct units, so total time ~ max, not sum.
  DevPtr d = rt->malloc_device(0, 1 << 20);
  const std::uint64_t buf = host.alloc(1 << 20);
  Stream compute(*rt, 0), copy(*rt, 0);
  Done k = compute.launch_kernel(us(200));
  Done c = copy.memcpy_async(buf, d, 1 << 20);
  Time t_k = -1, t_c = -1;
  [](Done d, sim::Simulator& sim, Time& out) -> sim::Coro {
    co_await d;
    out = sim.now();
  }(k, sim, t_k);
  [](Done d, sim::Simulator& sim, Time& out) -> sim::Coro {
    co_await d;
    out = sim.now();
  }(c, sim, t_c);
  sim.run();
  EXPECT_LT(std::max(t_k, t_c), us(230));  // overlapped, not 200+191
}

TEST_F(StreamFixture, MemcpyAsyncMovesData) {
  DevPtr d = rt->malloc_device(0, 4096);
  const std::uint64_t src = host.alloc(4096);
  const std::uint64_t dst = host.alloc(4096);
  std::ranges::fill(host.bytes(src, 4096), 0x5C);
  Stream s(*rt, 0);
  s.memcpy_async(d, src, 4096);
  Done done = s.memcpy_async(dst, d, 4096);
  sim.run();
  EXPECT_TRUE(done.ready());
  EXPECT_TRUE(std::ranges::equal(host.bytes(dst, 4096),
                                 std::vector<std::uint8_t>(4096, 0x5C)));
}

TEST_F(StreamFixture, RecordEventCompletesAfterPriorWork) {
  Stream s(*rt, 0);
  s.launch_kernel(us(15));
  Done ev = s.record_event();
  Time t = -1;
  [](Done d, sim::Simulator& sim, Time& out) -> sim::Coro {
    co_await d;
    out = sim.now();
  }(ev, sim, t);
  sim.run();
  EXPECT_NEAR(units::to_us(t), 15.0, 1.0);
}

TEST_F(StreamFixture, EmptyStreamEventIsImmediatelyReady) {
  Stream s(*rt, 0);
  EXPECT_TRUE(s.record_event().ready());
}

}  // namespace
}  // namespace apn::cuda
