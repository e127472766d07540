// MPI stack flavor presets: MVAPICH2-style (pipelined) vs 2012-OpenMPI
// (fragmented blocking staging) — the paper's two reference middlewares.
#include <gtest/gtest.h>

#include <span>

#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"

namespace apn::mpi {
namespace {

using cluster::Cluster;

TEST(MpiPresets, PresetValues) {
  MpiParams mv = mvapich2_params();
  EXPECT_EQ(mv.staged_fragment_bytes, 0u);
  EXPECT_LT(mv.gpu_pipeline_threshold, 1u << 20);
  MpiParams om = openmpi2012_params();
  EXPECT_GT(om.staged_fragment_bytes, 0u);
  EXPECT_GT(om.gpu_pipeline_threshold, 1u << 30);  // pipeline disabled
}

TEST(MpiPresets, FragmentedStagingPreservesData) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_ii(sim, 2, true, openmpi2012_params());
  const std::uint64_t n = 100000;  // not a multiple of the fragment size
  cuda::DevPtr src = c->node(0).cuda().malloc_device(0, n);
  cuda::DevPtr dst = c->node(1).cuda().malloc_device(0, n);
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<std::uint8_t>((i * 37) % 251);
  c->node(0).cuda().upload(src, std::as_bytes(std::span(data)));
  [](Cluster* c, cuda::DevPtr src, cuda::DevPtr dst,
     std::uint64_t n) -> sim::Coro {
    Signal r = c->mpi_rank(1).recv(0, dst, n, 1);
    Signal s = c->mpi_rank(0).send(1, src, n, 1);
    co_await s;
    co_await r;
  }(c.get(), src, dst, n);
  sim.run();
  std::vector<std::uint8_t> out(n);
  c->node(1).cuda().download(dst, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out, data);
}

TEST(MpiPresets, OpenMpiStagingSlowerThanMvapichPipeline) {
  auto gg = [](MpiParams params, std::uint64_t size) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_ii(sim, 2, true, params);
    return cluster::ib_gg_bandwidth(*c, size, 6).mbps;
  };
  double mv = gg(mvapich2_params(), 2 << 20);
  double om = gg(openmpi2012_params(), 2 << 20);
  EXPECT_GT(mv, om * 1.8);  // pipeline vs fragmented blocking copies
  // Era-reported OpenMPI D2D over IB: around 1 GB/s.
  EXPECT_GT(om, 600.0);
  EXPECT_LT(om, 1600.0);
}

TEST(MpiPresets, HostTrafficUnaffectedByGpuPreset) {
  auto hh = [](MpiParams params) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_ii(sim, 2, true, params);
    return cluster::ib_hh_bandwidth(*c, 1 << 20, 8).mbps;
  };
  double mv = hh(mvapich2_params());
  double om = hh(openmpi2012_params());
  EXPECT_NEAR(mv, om, mv * 0.02);  // host path identical in both stacks
}

TEST(MpiPresets, SerializedCopiesThrottleConcurrentDeviceSends) {
  // Many simultaneous small device-buffer sends from one rank serialize on
  // the library's host thread (one cudaMemcpy at a time).
  auto elapsed = [](int messages) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_ii(sim, 2, true, mvapich2_params());
    cuda::DevPtr src = c->node(0).cuda().malloc_device(0, 4096);
    cuda::DevPtr dst = c->node(1).cuda().malloc_device(0, 4096);
    auto t = std::make_shared<Time>(0);
    [](Cluster* c, cuda::DevPtr src, cuda::DevPtr dst, int messages,
       std::shared_ptr<Time> t) -> sim::Coro {
      std::vector<Signal> rs, ss;
      for (int i = 0; i < messages; ++i)
        rs.push_back(c->mpi_rank(1).recv(0, dst, 4096, i));
      Time t0 = c->simulator().now();
      for (int i = 0; i < messages; ++i)
        ss.push_back(c->mpi_rank(0).send(1, src, 4096, i));
      for (auto& s : ss) co_await s;
      for (auto& r : rs) co_await r;
      *t = c->simulator().now() - t0;
    }(c.get(), src, dst, messages, t);
    sim.run();
    return *t;
  };
  Time one = elapsed(1);
  Time eight = elapsed(8);
  // Eight messages cost nearly eight serialized D2H copies, not one.
  EXPECT_GT(eight, one + 6 * units::us(8));
}

}  // namespace
}  // namespace apn::mpi
