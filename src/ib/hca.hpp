// InfiniBand baseline: a ConnectX-2-class HCA model plus a crossbar switch.
//
// This provides the reference transport the paper compares against
// (MVAPICH2 / OpenMPI over IB, Figs. 7 and 9, Tables III and IV). The HCA
// is a PCIe endpoint that DMA-reads the source host buffer through a
// bounded read-request window (so the effective bandwidth emerges from the
// slot width: ~3 GB/s in a Gen2 x8 slot, ~1.6 GB/s in the x4 slot of the
// paper's Cluster I), streams it over a QDR link through the switch, and
// DMA-writes it into destination host memory. Messages are delivered to a
// receive-event queue consumed by the minimpi layer, which implements
// matching and the CUDA-aware staging/pipelining protocols.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/fn.hpp"
#include "pcie/fabric.hpp"
#include "pcie/memory.hpp"
#include "sim/channel.hpp"
#include "sim/coro.hpp"
#include "sim/sync.hpp"

namespace apn::ib {

struct HcaParams {
  Rate link_rate = units::Gbps(32);  ///< 4X QDR
  Time link_latency = units::ns(120);
  std::uint32_t wire_mtu = 4096;
  std::uint32_t wire_overhead = 30;     ///< LRH/BTH/ICRC per MTU frame
  Time send_overhead = units::us(0.8);  ///< post_send -> first DMA read
  Time recv_overhead = units::us(0.7);  ///< landing -> CQE visible
  std::uint32_t read_request_bytes = 512;
  std::uint32_t read_window = 16 * 1024;  ///< outstanding DMA-read bytes
};

/// Delivered message (CQE + data) as seen by the transport layer above.
struct IbRecvEvent {
  int src_rank = 0;
  std::uint64_t remote_addr = 0;  ///< 0 => eager (payload carried inline)
  std::uint32_t bytes = 0;
  std::uint64_t wr_id = 0;
  std::vector<std::uint8_t> inline_data;  ///< eager payload
};

class IbSwitch;

class Hca : public pcie::Device {
 public:
  Hca(sim::Simulator& sim, pcie::Fabric& fabric, pcie::HostMemory& hostmem,
      HcaParams params, int rank);

  int rank() const { return rank_; }
  const HcaParams& params() const { return params_; }

  /// RDMA-write-style send. If `remote_addr` is nonzero the payload is
  /// written into the destination node's host memory; otherwise
  /// it is delivered inline with the receive event (eager path).
  /// `on_sent` fires when the message fully left this HCA.
  void post_send(int dst_rank, std::uint64_t local_addr, std::uint32_t len,
                 std::uint64_t remote_addr, std::uint64_t wr_id,
                 bool carry_data = true,
                 std::function<void()> on_sent = {});

  /// Send with an explicit payload (eager/control path: the bytes come
  /// from library-owned vbufs rather than a registered user buffer).
  void post_send_inline(int dst_rank, std::vector<std::uint8_t> payload,
                        std::uint64_t wr_id,
                        std::function<void()> on_sent = {});

  sim::Queue<IbRecvEvent>& recv_events() { return recv_events_; }

  // pcie::Device (the HCA has no interesting MMIO behaviour in this model)
  void handle_write(std::uint64_t, pcie::Payload) override {}
  void handle_read(std::uint64_t, std::uint32_t len, bool,
                   pcie::ReadReply reply) override {
    reply(pcie::Payload::timing(len));
  }

 private:
  friend class IbSwitch;
  struct WireMsg {
    int src_rank, dst_rank;
    std::uint64_t remote_addr;
    std::uint32_t bytes;
    std::uint64_t wr_id;
    bool carry_data;
    std::vector<std::uint8_t> data;
    std::function<void()> on_sent;
  };

  sim::Coro tx_engine();
  /// Called at the destination HCA when one wire frame arrives.
  void deliver_frame(const WireMsg& msg, std::uint32_t offset,
                     std::vector<std::uint8_t> slice, bool last);

  sim::Simulator* sim_;
  pcie::Fabric* fabric_;
  pcie::HostMemory* hostmem_;
  HcaParams params_;
  int rank_;
  IbSwitch* switch_ = nullptr;
  sim::Channel* to_switch_ = nullptr;
  sim::Queue<WireMsg> tx_queue_;
  sim::CreditPool read_window_;
  sim::Queue<IbRecvEvent> recv_events_;
  /// Eager-path reassembly, keyed by (src rank, wr_id): frames of eager
  /// messages from different sources may interleave at the egress port.
  std::map<std::pair<int, std::uint64_t>, std::vector<std::uint8_t>>
      eager_assembly_;
};

/// Full-crossbar switch: one channel per direction per port; forwarding
/// latency folded into the channel latency.
class IbSwitch {
 public:
  IbSwitch(sim::Simulator& sim, Time port_latency = units::ns(140))
      : sim_(&sim), port_latency_(port_latency) {}

  void connect(Hca& hca);
  int ports() const { return static_cast<int>(hcas_.size()); }

 private:
  friend class Hca;
  /// Channel toward the HCA with the given rank.
  sim::Channel& egress(int rank) { return *down_[static_cast<std::size_t>(rank)]; }
  Hca& hca(int rank) { return *hcas_.at(static_cast<std::size_t>(rank)); }

  sim::Simulator* sim_;
  Time port_latency_;
  std::vector<Hca*> hcas_;
  std::vector<std::unique_ptr<sim::Channel>> up_;    // hca -> switch
  std::vector<std::unique_ptr<sim::Channel>> down_;  // switch -> hca
};

}  // namespace apn::ib
