#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "host_bytes.hpp"

namespace apn::mpi {
namespace {

using cluster::Cluster;
using test_util::host_buf;
using test_util::host_bytes;
using units::us;

struct MpiFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<Cluster> c;
  void SetUp() override { c = Cluster::make_cluster_ii(sim, 4); }
  pcie::HostMemory& host(int node) { return c->node(node).hostmem(); }
};

TEST_F(MpiFixture, EagerHostSendRecv) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  const std::uint64_t src = host_buf(host(0), data);
  const std::uint64_t dst = host(1).alloc(1000);
  [](Cluster* c, std::uint64_t src, std::uint64_t dst) -> sim::Coro {
    Signal s = c->mpi_rank(0).send(1, src, 1000, 9);
    Signal r = c->mpi_rank(1).recv(0, dst, 1000, 9);
    co_await s;
    co_await r;
  }(c.get(), src, dst);
  sim.run();
  EXPECT_EQ(host_bytes(host(1), dst, 1000), data);
}

TEST_F(MpiFixture, EagerCopyOutsideAllocationsAborts) {
  // The eager path copies the user buffer on the CPU: a host address
  // outside every allocation is a program error, not a silent copy.
  EXPECT_DEATH(
      {
        [](Cluster* c) -> sim::Coro {
          co_await c->mpi_rank(0).send(1, 0x5000, 64, 1);
        }(c.get());
        sim.run();
      },
      "");
}

TEST_F(MpiFixture, RendezvousLargeHostTransfer) {
  const std::uint64_t n = 1 << 20;
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<std::uint8_t>(i * 31);
  const std::uint64_t src = host_buf(host(0), data);
  const std::uint64_t dst = host(1).alloc(n);
  [](Cluster* c, std::uint64_t src, std::uint64_t dst,
     std::uint64_t n) -> sim::Coro {
    Signal r = c->mpi_rank(1).recv(0, dst, n, 3);
    Signal s = c->mpi_rank(0).send(1, src, n, 3);
    co_await s;
    co_await r;
  }(c.get(), src, dst, n);
  sim.run();
  EXPECT_EQ(host_bytes(host(1), dst, n), data);
}

TEST_F(MpiFixture, UnexpectedMessageMatchesLatePost) {
  const std::vector<std::uint8_t> data(128, 0x3D);
  const std::uint64_t src = host_buf(host(0), data);
  const std::uint64_t dst = host(1).alloc(128);
  [](Cluster* c, std::uint64_t src, std::uint64_t dst) -> sim::Coro {
    co_await c->mpi_rank(0).send(1, src, 128, 4);
    // recv posted long after the eager message arrived.
    co_await sim::delay(c->simulator(), us(100));
    co_await c->mpi_rank(1).recv(0, dst, 128, 4);
  }(c.get(), src, dst);
  sim.run();
  EXPECT_EQ(host_bytes(host(1), dst, 128), data);
}

TEST_F(MpiFixture, TagsAndSourcesMatchIndependently) {
  const std::uint64_t a = host_buf(host(0), std::vector<std::uint8_t>(64, 1));
  const std::uint64_t b = host_buf(host(0), std::vector<std::uint8_t>(64, 2));
  const std::uint64_t out_a = host(1).alloc(64);
  const std::uint64_t out_b = host(1).alloc(64);
  [](Cluster* c, std::uint64_t a, std::uint64_t b, std::uint64_t oa,
     std::uint64_t ob) -> sim::Coro {
    // Two sends with different tags, received in the opposite order.
    co_await c->mpi_rank(0).send(1, a, 64, 10);
    co_await c->mpi_rank(0).send(1, b, 64, 20);
    co_await c->mpi_rank(1).recv(0, ob, 64, 20);
    co_await c->mpi_rank(1).recv(0, oa, 64, 10);
  }(c.get(), a, b, out_a, out_b);
  sim.run();
  EXPECT_EQ(host_bytes(host(1), out_a, 1)[0], 1);
  EXPECT_EQ(host_bytes(host(1), out_b, 1)[0], 2);
}

TEST_F(MpiFixture, DeviceToDeviceStagedTransfer) {
  cuda::Runtime& cu0 = c->node(0).cuda();
  cuda::Runtime& cu1 = c->node(1).cuda();
  cuda::DevPtr src = cu0.malloc_device(0, 4096);
  cuda::DevPtr dst = cu1.malloc_device(0, 4096);
  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i % 127);
  cu0.upload(src, std::as_bytes(std::span(data)));

  [](Cluster* c, cuda::DevPtr src, cuda::DevPtr dst) -> sim::Coro {
    Signal r = c->mpi_rank(1).recv(0, dst, 4096, 8);
    Signal s = c->mpi_rank(0).send(1, src, 4096, 8);
    co_await s;
    co_await r;
  }(c.get(), src, dst);
  sim.run();

  std::vector<std::uint8_t> out(4096);
  cu1.download(dst, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out, data);
}

TEST_F(MpiFixture, DeviceLargePipelinedTransfer) {
  const std::uint64_t n = 2 << 20;
  cuda::Runtime& cu0 = c->node(0).cuda();
  cuda::Runtime& cu1 = c->node(1).cuda();
  cuda::DevPtr src = cu0.malloc_device(0, n);
  cuda::DevPtr dst = cu1.malloc_device(0, n);
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<std::uint8_t>((i * 7) % 255);
  cu0.upload(src, std::as_bytes(std::span(data)));

  [](Cluster* c, cuda::DevPtr src, cuda::DevPtr dst,
     std::uint64_t n) -> sim::Coro {
    Signal r = c->mpi_rank(1).recv(0, dst, n, 2);
    Signal s = c->mpi_rank(0).send(1, src, n, 2);
    co_await s;
    co_await r;
  }(c.get(), src, dst, n);
  sim.run();

  std::vector<std::uint8_t> out(n);
  cu1.download(dst, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out, data);
}

TEST_F(MpiFixture, GgLatencyIncludesTwoStagingCopies) {
  // The staged G-G ping-pong latency must exceed H-H by roughly two
  // synchronous cudaMemcpy costs (paper: 17.4 vs a few us).
  sim::Simulator s1;
  auto c1 = Cluster::make_cluster_ii(s1, 2);
  Time hh = cluster::ib_hh_latency(*c1, 32, 50);
  sim::Simulator s2;
  auto c2 = Cluster::make_cluster_ii(s2, 2);
  Time gg = cluster::ib_gg_latency(*c2, 32, 50);
  EXPECT_GT(gg, hh + us(9));
  EXPECT_LT(gg, hh + us(20));
}

TEST_F(MpiFixture, Barrier) {
  auto order = std::make_shared<std::vector<int>>();
  for (int r = 0; r < 4; ++r) {
    [](Cluster* c, int r, std::shared_ptr<std::vector<int>> order)
        -> sim::Coro {
      // Stagger arrival; nobody may pass before the last one arrives.
      co_await sim::delay(c->simulator(), us(10) * (r + 1));
      co_await c->mpi_rank(r).barrier();
      order->push_back(r);
      EXPECT_GE(c->simulator().now(), us(40));
    }(c.get(), r, order);
  }
  sim.run();
  EXPECT_EQ(order->size(), 4u);
}

TEST_F(MpiFixture, AllreduceSum) {
  auto results = std::make_shared<std::vector<std::uint64_t>>(4, 0);
  for (int r = 0; r < 4; ++r) {
    [](Cluster* c, int r, std::shared_ptr<std::vector<std::uint64_t>> out)
        -> sim::Coro {
      std::uint64_t v = static_cast<std::uint64_t>(r + 1) * 10;
      co_await c->mpi_rank(r).allreduce_sum(&v);
      (*out)[static_cast<std::size_t>(r)] = v;
    }(c.get(), r, results);
  }
  sim.run();
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ((*results)[static_cast<std::size_t>(r)], 100u);
}

}  // namespace
}  // namespace apn::mpi
