#include "cluster/cluster.hpp"

#include <stdexcept>

#include "hw/profile.hpp"
#include "trace/trace.hpp"

namespace apn::cluster {

namespace {
/// Integrated memory controller "link": wide and fast, so host DRAM is
/// never the PCIe bottleneck (Westmere-era ~20 GB/s per socket).
pcie::LinkParams imc_link() {
  pcie::LinkParams l;
  l.gen = 3;
  l.lanes = 24;
  l.max_payload = 256;
  l.tlp_overhead = 16;
  l.hop_latency = units::ns(90);
  return l;
}

std::uint64_t node_mmio_base(int index) {
  return 0xE00000000000ull + static_cast<std::uint64_t>(index) * (1ull << 36);
}
}  // namespace

Node::Node(sim::Simulator& sim, int index, core::TorusCoord coord,
           const NodeConfig& cfg, const core::ApenetParams& apn_params,
           const ib::HcaParams& ib_params)
    : index_(index) {
  fabric_ = std::make_unique<pcie::Fabric>(
      sim, 4096, "node" + std::to_string(index) + ".pcie");
  int root = fabric_->add_root("rc" + std::to_string(index));

  hostmem_ = std::make_unique<pcie::HostMemory>(sim, cfg.hostmem);
  fabric_->attach(*hostmem_, root, imc_link());
  fabric_->set_default_target(*hostmem_);

  // PLX switch carrying the GPUs and the NICs (the paper's "ideal
  // platform": APEnet+ and GPU linked by a PLX PCIe switch).
  plx_ = fabric_->add_switch(root, pcie::gen2_x16(),
                             "plx" + std::to_string(index));

  const std::uint64_t base = node_mmio_base(index);
  std::vector<gpu::Gpu*> gpu_ptrs;
  for (std::size_t g = 0; g < cfg.gpus.size(); ++g) {
    auto gp = std::make_unique<gpu::Gpu>(
        sim, *fabric_, cfg.gpus[g],
        base + ((static_cast<std::uint64_t>(g) + 1) << 32),
        "gpu" + std::to_string(g));
    gpu_nodes_.push_back(fabric_->attach(*gp, plx_, cfg.gpu_slot));
    fabric_->claim_range(*gp, gp->mmio_base(), gp->mmio_size());
    gpu_ptrs.push_back(gp.get());
    gpus_.push_back(std::move(gp));
  }
  cuda_ =
      std::make_unique<cuda::Runtime>(sim, *hostmem_, gpu_ptrs, cfg.cuda);

  if (cfg.has_apenet) {
    card_ = std::make_unique<core::ApenetCard>(sim, *fabric_, apn_params,
                                               coord, base);
    card_node_ = fabric_->attach(*card_, plx_, cfg.apenet_slot);
    fabric_->claim_range(*card_, base, core::ApenetCard::kMmioSize);
    rdma_ = std::make_unique<core::RdmaDevice>(
        *card_, gpus_.empty() ? nullptr : cuda_.get());
  }

  if (cfg.has_ib) {
    hca_ = std::make_unique<ib::Hca>(sim, *fabric_, *hostmem_, ib_params,
                                     index);
    fabric_->attach(*hca_, plx_, cfg.ib_slot);
  }
}

Cluster::Cluster(sim::Simulator& sim, core::TorusShape shape, NodeConfig cfg,
                 core::ApenetParams apn_params, ib::HcaParams ib_params,
                 mpi::MpiParams mpi_params)
    : sim_(&sim), shape_(shape), check_session_(check::Session::from_env(sim)) {
  // Honor APN_TRACE for every binary that assembles a cluster: the sink
  // must exist before components open their trace tracks.
  trace::init_from_env();
  for (int i = 0; i < shape.size(); ++i) {
    nodes_.push_back(std::make_unique<Node>(sim, i, shape.coord(i), cfg,
                                            apn_params, ib_params));
  }
  if (cfg.has_apenet) {
    apenet_ = std::make_unique<core::ApenetNetwork>(sim, shape);
    for (auto& n : nodes_) apenet_->add_card(n->card());
    apenet_->wire();
  }
  if (cfg.has_ib) {
    if (cfg.mpi_ranks) {
      mpi_world_ = std::make_unique<mpi::World>(sim, mpi_params);
      for (auto& n : nodes_) {
        mpi_ranks_.push_back(std::make_unique<mpi::Rank>(
            *mpi_world_, n->hca(), n->hostmem(),
            n->gpu_count() > 0 ? &n->cuda() : nullptr));
      }
    } else {
      raw_ib_switch_ = std::make_unique<ib::IbSwitch>(sim);
      for (auto& n : nodes_) raw_ib_switch_->connect(n->hca());
    }
  }
}

std::unique_ptr<Cluster> Cluster::make_cluster_i(
    sim::Simulator& sim, int nodes, core::ApenetParams apn_params,
    bool with_ib) {
  core::TorusShape shape;
  if (nodes == 1) shape = {1, 1, 1};
  else if (nodes == 2) shape = {2, 1, 1};
  else if (nodes == 4) shape = {4, 1, 1};
  else if (nodes == 8) shape = {4, 2, 1};
  // The 16/24-node configurations the paper announces as the next
  // expansion step ("we will be able to scale up to 16/24 nodes").
  else if (nodes == 16) shape = {4, 2, 2};
  else if (nodes == 24) shape = {4, 2, 3};
  else throw std::invalid_argument("Cluster I supports 1/2/4/8/16/24 nodes");

  // GPU model and PCIe slot wiring come from the active hardware profile
  // (docs/HARDWARE.md). The default, apenet_2013, reproduces the paper's
  // Cluster I exactly: one C2050-class GPU per node ("all Fermi 2050 but
  // one 2070"; the 6 GB C2070 only matters for the L=512 HSG run), the
  // card in a Gen2 x8 slot, and the HCA in the constrained x4 slot
  // (motherboard constraint, paper §V).
  const hw::HwProfile& hp = hw::active();
  NodeConfig cfg;
  cfg.gpus = {hp.gpu};
  cfg.has_apenet = true;
  cfg.has_ib = with_ib;
  cfg.apenet_slot = hp.apenet_slot;
  cfg.ib_slot = hp.ib_slot;
  cfg.gpu_slot = hp.gpu_slot;

  auto c = std::make_unique<Cluster>(sim, shape, cfg, apn_params,
                                     ib::HcaParams{}, mpi::MpiParams{});
  return c;
}

std::unique_ptr<Cluster> Cluster::make_cluster_ii(sim::Simulator& sim,
                                                  int nodes, bool with_mpi,
                                                  mpi::MpiParams mpi_params) {
  core::TorusShape shape{nodes, 1, 1};
  NodeConfig cfg;
  cfg.gpus = {gpu::fermi_c2075(), gpu::fermi_c2075()};
  cfg.has_apenet = false;
  cfg.has_ib = true;
  cfg.mpi_ranks = with_mpi;
  cfg.ib_slot = pcie::gen2_x8();
  return std::make_unique<Cluster>(sim, shape, cfg, core::ApenetParams{},
                                   ib::HcaParams{}, mpi_params);
}

}  // namespace apn::cluster
