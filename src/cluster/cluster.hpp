// Cluster assembly: nodes (PCIe fabric + host memory + GPUs + NICs) and the
// paper's two testbeds.
//
//  * Cluster I — 8 dual-socket Xeon Westmere nodes in a 4x2x1 APEnet+
//    torus; one Fermi GPU per node (C2050, one C2070); a ConnectX-2 HCA in
//    a PCIe x4 slot ("due to motherboard constraints") on a Mellanox
//    MTS3600 switch. GPU and APEnet+ share a PLX PCIe switch.
//  * Cluster II — 12 Xeon Westmere nodes, two C2075 each, ConnectX-2 in a
//    x8 slot on an IS5030 switch (the IB reference platform).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/network.hpp"
#include "core/rdma.hpp"
#include "gpu/arch.hpp"
#include "ib/hca.hpp"
#include "minimpi/comm.hpp"
#include "pcie/memory.hpp"
#include "simcuda/runtime.hpp"

namespace apn::cluster {

struct NodeConfig {
  std::vector<gpu::GpuArch> gpus;
  bool has_apenet = true;
  bool has_ib = false;
  /// Create minimpi ranks over the HCAs. Disable for tests that drive the
  /// verbs-level HCA interface directly (the rank's progress loop would
  /// otherwise consume the HCA's receive events).
  bool mpi_ranks = true;
  pcie::LinkParams apenet_slot = pcie::gen2_x8();
  pcie::LinkParams ib_slot = pcie::gen2_x8();
  pcie::LinkParams gpu_slot = pcie::gen2_x16();
  pcie::HostMemoryParams hostmem{};
  cuda::RuntimeParams cuda{};
};

/// One cluster node: a PCIe tree with host DRAM at the root, a PLX switch
/// below it carrying the GPUs and the NIC(s).
class Node {
 public:
  Node(sim::Simulator& sim, int index, core::TorusCoord coord,
       const NodeConfig& cfg, const core::ApenetParams& apn_params,
       const ib::HcaParams& ib_params);

  int index() const { return index_; }
  pcie::Fabric& fabric() { return *fabric_; }
  pcie::HostMemory& hostmem() { return *hostmem_; }
  cuda::Runtime& cuda() { return *cuda_; }
  gpu::Gpu& gpu(int i = 0) { return *gpus_.at(static_cast<std::size_t>(i)); }
  int gpu_count() const { return static_cast<int>(gpus_.size()); }

  bool has_apenet() const { return card_ != nullptr; }
  core::ApenetCard& card() { return *card_; }
  core::RdmaDevice& rdma() { return *rdma_; }

  bool has_ib() const { return hca_ != nullptr; }
  ib::Hca& hca() { return *hca_; }

  /// The PLX switch node id (for attaching a bus analyzer to a slot).
  int plx_switch_node() const { return plx_; }
  int card_pcie_node() const { return card_node_; }
  int gpu_pcie_node(int i = 0) const {
    return gpu_nodes_.at(static_cast<std::size_t>(i));
  }

 private:
  int index_;
  std::unique_ptr<pcie::Fabric> fabric_;
  std::unique_ptr<pcie::HostMemory> hostmem_;
  std::vector<std::unique_ptr<gpu::Gpu>> gpus_;
  std::unique_ptr<cuda::Runtime> cuda_;
  std::unique_ptr<core::ApenetCard> card_;
  std::unique_ptr<core::RdmaDevice> rdma_;
  std::unique_ptr<ib::Hca> hca_;
  int plx_ = -1;
  int card_node_ = -1;
  std::vector<int> gpu_nodes_;
};

/// A full machine: nodes + APEnet+ torus wiring + (optionally) the IB
/// switch with one minimpi rank per node.
class Cluster {
 public:
  Cluster(sim::Simulator& sim, core::TorusShape shape, NodeConfig cfg,
          core::ApenetParams apn_params = {}, ib::HcaParams ib_params = {},
          mpi::MpiParams mpi_params = {});

  sim::Simulator& simulator() { return *sim_; }
  int size() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  core::TorusShape shape() const { return shape_; }
  core::TorusCoord coord(int i) const { return shape_.coord(i); }

  bool has_apenet() const { return apenet_ != nullptr; }
  core::ApenetNetwork& apenet() { return *apenet_; }
  core::RdmaDevice& rdma(int i) { return node(i).rdma(); }

  bool has_mpi() const { return mpi_world_ != nullptr; }
  mpi::World& mpi_world() { return *mpi_world_; }
  mpi::Rank& mpi_rank(int i) { return *mpi_ranks_.at(static_cast<std::size_t>(i)); }

  // ---- paper testbeds -------------------------------------------------------
  /// Cluster I: `nodes` <= 8 of the 4x2x1 torus (smaller counts keep the
  /// torus shape of the leading nodes: 2 -> 2x1x1, 4 -> 4x1x1, 8 -> 4x2x1).
  static std::unique_ptr<Cluster> make_cluster_i(
      sim::Simulator& sim, int nodes = 8, core::ApenetParams apn_params = {},
      bool with_ib = true);

  /// Cluster II: IB-only nodes with two C2075 GPUs each. `with_mpi=false`
  /// wires the HCAs into a bare switch for verbs-level tests. `mpi_params`
  /// selects the MPI stack flavor (MVAPICH2-style by default; pass
  /// mpi::openmpi2012_params() for the paper's OMPI reference columns).
  static std::unique_ptr<Cluster> make_cluster_ii(
      sim::Simulator& sim, int nodes = 12, bool with_mpi = true,
      mpi::MpiParams mpi_params = {});

 private:
  sim::Simulator* sim_;
  core::TorusShape shape_;
  /// Race-detector session, installed before any component schedules events
  /// (nullptr unless APN_CHECK / --check enabled checking).
  std::unique_ptr<check::Session> check_session_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<core::ApenetNetwork> apenet_;
  std::unique_ptr<mpi::World> mpi_world_;
  std::vector<std::unique_ptr<mpi::Rank>> mpi_ranks_;
  std::unique_ptr<ib::IbSwitch> raw_ib_switch_;  // mpi_ranks == false
};

}  // namespace apn::cluster
