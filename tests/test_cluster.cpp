#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "cluster/cluster.hpp"

namespace apn::cluster {
namespace {

TEST(ClusterPresets, ClusterIShapes) {
  sim::Simulator sim;
  auto c8 = Cluster::make_cluster_i(sim, 8);
  EXPECT_EQ(c8->size(), 8);
  EXPECT_TRUE(c8->has_apenet());
  EXPECT_TRUE(c8->has_mpi());
  EXPECT_EQ(c8->node(0).gpu_count(), 1);
  EXPECT_EQ(c8->node(0).gpu(0).arch().mem_bytes, 3ull << 30);

  sim::Simulator sim2;
  auto c2 = Cluster::make_cluster_i(sim2, 2);
  EXPECT_EQ(c2->shape().nx, 2);
  EXPECT_EQ(c2->shape().ny, 1);

  sim::Simulator sim3;
  EXPECT_THROW(Cluster::make_cluster_i(sim3, 5), std::invalid_argument);
}

TEST(ClusterPresets, ClusterIIHasTwoGpusNoApenet) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_ii(sim, 12);
  EXPECT_EQ(c->size(), 12);
  EXPECT_FALSE(c->has_apenet());
  EXPECT_TRUE(c->has_mpi());
  EXPECT_EQ(c->node(0).gpu_count(), 2);
  EXPECT_EQ(c->node(3).gpu(1).arch().name, "Fermi C2075");
}

TEST(ClusterPresets, ClusterIUsesX4IbSlot) {
  // Paper: ConnectX-2 "plugged in a PCIe X4 slot (due to motherboard
  // constraints)" on Cluster I.
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2);
  EXPECT_TRUE(c->node(0).has_ib());
  // Indirect check: the cluster builds and both NICs coexist on the PLX.
  EXPECT_TRUE(c->node(0).has_apenet());
}

TEST(Node, FabricRoutesGpuAndCardMmio) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 1, core::ApenetParams{}, false);
  Node& n = c->node(0);
  // GPU MMIO routes to the GPU, card MMIO to the card, anything else to
  // host memory.
  EXPECT_EQ(n.fabric().route(n.gpu(0).mailbox_addr()),
            static_cast<pcie::Device*>(&n.gpu(0)));
  EXPECT_EQ(n.fabric().route(n.card().gpu_landing_addr()),
            static_cast<pcie::Device*>(&n.card()));
  EXPECT_EQ(n.fabric().route(0x7000),
            static_cast<pcie::Device*>(&n.hostmem()));
}

TEST(Node, SeparateNodesHaveSeparateFabrics) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, core::ApenetParams{}, false);
  // Same-valued UVA pointers on different nodes are independent.
  cuda::DevPtr a = c->node(0).cuda().malloc_device(0, 4096);
  cuda::DevPtr b = c->node(1).cuda().malloc_device(0, 4096);
  EXPECT_EQ(a, b);  // identical allocation sequence => identical UVA
  std::vector<std::uint8_t> d0(16, 1), d1(16, 2), out(16);
  c->node(0).cuda().upload(a, std::as_bytes(std::span(d0)));
  c->node(1).cuda().upload(b, std::as_bytes(std::span(d1)));
  c->node(0).cuda().download(a, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out[0], 1);
  c->node(1).cuda().download(b, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out[0], 2);
}

TEST(Node, CardCoordinatesMatchTorusPosition) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 8, core::ApenetParams{}, false);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(c->node(i).card().coord(), c->shape().coord(i));
  }
}

}  // namespace
}  // namespace apn::cluster
