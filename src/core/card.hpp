// ApenetCard: the APEnet+ network adapter model (paper §III-B / §IV).
//
// One card per cluster node, attached to that node's PCIe fabric. The card
// contains:
//  * the Network Interface: a host-buffer TX engine (kernel-driver
//    descriptors + DMA reads of host memory through a bounded read window
//    into a 32 KB TX FIFO) and the GPU_P2P_TX engine (see gpu_p2p_tx.hpp);
//  * the Router: 8-port switch, dimension-ordered 3D-torus routing, six
//    external link ports wired by ApenetNetwork;
//  * the RX RDMA engine: per-packet firmware processing on the Nios II
//    (BUF_LIST validation + V2P translation), then DMA writes into host
//    memory or into GPU memory through the P2P write window;
//  * the Nios II micro-controller, modeled as a serialized sim::Resource
//    shared by RX processing and GPU-TX supervision — the contention the
//    paper identifies as its main bottleneck.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/check.hpp"
#include "common/fn.hpp"
#include "common/log.hpp"
#include "core/packet.hpp"
#include "core/v2p.hpp"
#include "core/params.hpp"
#include "core/torus.hpp"
#include "gpu/gpu.hpp"
#include "pcie/fabric.hpp"
#include "sim/coro.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace apn::core {

class GpuP2pTx;

/// One registered buffer as seen by the card firmware (BUF_LIST entry).
struct BufListEntry {
  std::uint64_t vaddr = 0;  ///< 64-bit UVA / host virtual address
  std::uint64_t len = 0;
  std::uint32_t pid = 0;
  bool is_gpu = false;
  gpu::Gpu* gpu = nullptr;        ///< target GPU (GPU buffers only)
  std::uint64_t dev_offset = 0;   ///< device offset of vaddr (GPU buffers)
};

/// Completion event pushed to the host RDMA library.
struct RdmaEvent {
  enum class Kind { kRxDone } kind = Kind::kRxDone;
  std::uint64_t msg_id = 0;
  std::uint64_t vaddr = 0;   ///< message target virtual address
  std::uint32_t bytes = 0;
  TorusCoord peer;           ///< source node
};

/// A transmit request handed to the card by the kernel driver.
struct TxDescriptor {
  PacketHeader proto;        ///< dst coords / vaddr / pid / msg id / size
  bool src_is_gpu = false;
  std::uint64_t src_addr = 0;      ///< host pointer value (host source)
  gpu::Gpu* src_gpu = nullptr;     ///< source GPU (GPU source)
  std::uint64_t src_dev_offset = 0;
  bool carry_data = true;    ///< false => timing-only payloads
  /// Completes when the last packet of the message left the card.
  std::shared_ptr<sim::Gate> tx_done;
};

class ApenetCard : public pcie::Device {
 public:
  /// MMIO region size claimed on the fabric.
  static constexpr std::uint64_t kMmioSize = 2ull << 20;
  static constexpr std::uint64_t kLandingZoneOff = 1ull << 20;

  ApenetCard(sim::Simulator& sim, pcie::Fabric& fabric, ApenetParams params,
             TorusCoord me, std::uint64_t mmio_base);
  ~ApenetCard() override;

  sim::Simulator& simulator() { return *sim_; }
  pcie::Fabric& fabric() { return *fabric_; }
  const TorusCoord& coord() const { return me_; }
  const ApenetParams& params() const { return params_; }
  /// Mutable access for test sweeps; only touch while the card is idle.
  ApenetParams& mutable_params() { return params_; }

  // ---- wiring (ApenetNetwork) ---------------------------------------------
  void set_shape(TorusShape shape) { shape_ = shape; }
  void set_link(TorusPort port, sim::Channel* out, ApenetCard* neighbor);
  /// A packet fully arrived over an external link.
  void receive_from_link(ApPacket pkt);

  // ---- driver-facing interface (costs charged by the RDMA library) -----
  void add_buffer(BufListEntry entry);
  void remove_buffer(std::uint64_t vaddr, std::uint32_t pid);
  std::size_t buffer_count() const { return buf_list_.size(); }
  const PageTable& host_v2p() const { return host_v2p_; }
  /// GPU_V2P table for `g`; nullptr if no buffer of that GPU is mapped.
  const PageTable* gpu_v2p(gpu::Gpu* g) const {
    auto it = gpu_v2p_.find(g);
    return it == gpu_v2p_.end() ? nullptr : it->second.get();
  }
  const BufListEntry* find_buffer(std::uint64_t addr,
                                  std::uint32_t pid) const;
  void submit_tx(TxDescriptor d);
  sim::Queue<RdmaEvent>& rx_events() { return rx_events_; }

  std::uint64_t gpu_landing_addr() const {
    return mmio_base_ + kLandingZoneOff;
  }

  // ---- statistics -------------------------------------------------------------
  sim::Resource& nios() { return nios_; }
  GpuP2pTx& gpu_tx() { return *gpu_tx_; }
  std::uint64_t packets_injected() const { return packets_injected_.peek(); }
  std::uint64_t packets_received() const { return packets_received_.peek(); }
  std::uint64_t rx_drops() const { return rx_drops_.peek(); }
  std::uint64_t rx_bytes() const { return rx_bytes_.peek(); }

  // ---- pcie::Device -----------------------------------------------------------
  void handle_write(std::uint64_t addr, pcie::Payload payload) override;
  void handle_read(std::uint64_t addr, std::uint32_t len, bool with_data,
                   pcie::ReadReply reply) override;

  // ---- used by GpuP2pTx ---------------------------------------------------
  /// Inject a packet into the router; `on_sent` fires when the packet has
  /// left the card (link serialization done, or local/flushed delivery).
  void inject(ApPacket pkt, UniqueFn<void()> on_sent);
  sim::Resource& nios_resource() { return nios_; }

 private:
  sim::Coro host_tx_engine();
  sim::Coro rx_processor();
  void route_or_forward(ApPacket pkt);
  void deliver_rx_write(const ApPacket& pkt, const BufListEntry& entry);
  void account_rx_delivery(const PacketHeader& hdr);
  Time rx_task_time(bool gpu_dest) const;

  sim::Simulator* sim_;
  pcie::Fabric* fabric_;
  ApenetParams params_;
  Logger log_;
  TorusCoord me_;
  TorusShape shape_;
  // apn-lint: allow(check-coverage) — fixed at construction, never mutated
  std::uint64_t mmio_base_;

  // Router / links.
  struct LinkOut {
    sim::Channel* channel = nullptr;
    ApenetCard* neighbor = nullptr;
  };
  // apn-lint: allow(check-coverage) — wired once at topology setup
  std::array<LinkOut, kTorusPorts> links_{};

  // Engines and firmware.
  sim::Resource nios_;
  sim::Resource injection_;  ///< per-packet injection logic (HW)
  sim::Queue<TxDescriptor> host_tx_queue_;
  sim::CreditPool host_tx_fifo_;
  sim::CreditPool host_read_window_;
  sim::Queue<ApPacket> rx_queue_;
  std::unique_ptr<GpuP2pTx> gpu_tx_;

  // RX message reassembly and completion.
  struct RxMsgState {
    std::uint64_t received = 0;
    std::uint64_t written = 0;
  };
  std::unordered_map<std::uint64_t, RxMsgState> rx_msgs_;
  sim::Queue<RdmaEvent> rx_events_;

  // GPU P2P write-window state (per target GPU).
  std::unordered_map<gpu::Gpu*, std::uint64_t> gpu_window_;

  // Firmware address-translation tables (paper §IV): 4 KB-paged HOST_V2P
  // and one 64 KB-paged GPU_V2P per GPU on the bus.
  PageTable host_v2p_{12};
  std::unordered_map<gpu::Gpu*, std::unique_ptr<PageTable>> gpu_v2p_;

  std::vector<BufListEntry> buf_list_;
  check::StateCell<std::uint64_t> packets_injected_{"card.packets_injected"};
  check::StateCell<std::uint64_t> packets_received_{"card.packets_received"};
  check::StateCell<std::uint64_t> rx_drops_{"card.rx_drops"};
  check::StateCell<std::uint64_t> rx_bytes_{"card.rx_bytes"};

  // Observability (inert unless a trace sink is installed; see src/trace).
  trace::Track trace_rx_;       ///< RX RDMA engine lane (Nios + delivery)
  trace::Track trace_host_tx_;  ///< host-buffer TX engine lane
  std::array<trace::Track, kTorusPorts> trace_links_{};  ///< torus channels
  trace::Counter* m_rx_packets_;
  trace::Counter* m_rx_drops_;
  trace::Counter* m_rx_bytes_;
  trace::Counter* m_tx_packets_;
};

}  // namespace apn::core
