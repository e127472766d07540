// GPU_P2P_TX: the GPU memory-read engine of the APEnet+ card — the hardest
// part of the paper's contribution (§IV) and the subject of Figs. 4 and 5.
//
// Transmission of a GPU buffer is delegated to the card: the engine issues
// read-request descriptors to the GPU's P2P mailbox; the GPU answers with
// posted writes of the data into the card's landing zone; arrived data is
// packetized and injected into the torus.
//
// Three generations are modeled:
//  * V1 — software-only: the Nios II builds and issues each (<=4 KB)
//    request and waits for its data before issuing the next. No
//    pipelining, heavy Nios load => ~600 MB/s ceiling.
//  * V2 — a hardware block issues one read request every
//    `p2p_request_interval` (80 ns), with at most `p2p_prefetch_window`
//    bytes outstanding (4-32 KB); FIFO space is reserved at request time.
//    The Nios II still supervises each outgoing packet.
//  * V3 — prefetching is bounded only by the (configurable) window and
//    back-pressure from TX FIFO occupancy; Nios involvement drops to one
//    task per 64 KB refill, freeing firmware cycles for the RX path (the
//    effect visible in the paper's loop-back plot, Fig. 5).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/packet.hpp"
#include "core/params.hpp"
#include "gpu/gpu.hpp"
#include "sim/coro.hpp"
#include "sim/sync.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace apn::core {

class ApenetCard;

/// One GPU-source transmit job (a PUT of a GPU buffer).
struct GpuTxJob {
  PacketHeader proto;
  gpu::Gpu* gpu = nullptr;
  std::uint64_t dev_offset = 0;
  bool carry_data = true;
  std::shared_ptr<sim::Gate> tx_done;
};

class GpuP2pTx {
 public:
  GpuP2pTx(ApenetCard& card, const ApenetParams& params);

  void submit(GpuTxJob job);

  /// Called by the card when GPU response data lands in the landing zone.
  void on_data_arrival(pcie::Payload payload);

  std::uint64_t requests_issued() const { return requests_issued_; }
  std::uint64_t bytes_read() const { return bytes_read_; }

 private:
  sim::Coro engine();
  void issue_request(gpu::Gpu& gpu, std::uint64_t dev_offset,
                     std::uint32_t len);
  /// Consumes arrived bytes of the active job: forms packets, injects them.
  sim::Coro packetize();

  ApenetCard& card_;
  const ApenetParams& params_;
  sim::Simulator& sim_;

  sim::Queue<GpuTxJob> jobs_;
  sim::CreditPool window_;   ///< outstanding (issued, not landed) bytes
  sim::CreditPool fifo_;     ///< TX data FIFO space (released at injection)

  // Current job state (engine processes one job at a time).
  struct Active {
    explicit Active(sim::Simulator& sim, GpuTxJob j)
        : job(std::move(j)),
          arrived_pool(sim, 0),
          all_arrived(std::make_shared<sim::Gate>(sim)),
          packetize_done(std::make_shared<sim::Gate>(sim)) {}
    GpuTxJob job;
    std::uint64_t issued = 0;      ///< bytes requested from the GPU
    std::uint64_t arrived = 0;     ///< bytes landed
    // apn-lint: allow(check-coverage) — owned solely by the packetizer coro
    std::uint64_t sent_packets = 0;
    // apn-lint: allow(check-coverage) — computed once when the job is issued
    std::uint64_t total_packets = 0;
    // apn-lint: allow(check-coverage) — set once at issue, read-only after
    bool uses_window = false;      ///< v2/v3: window credits held per byte
    std::vector<std::uint8_t> buffer;  ///< landed data (carry_data only)
    sim::CreditPool arrived_pool;  ///< arrived-byte counter for packetizer
    std::uint64_t v1_wait_target = 0;
    std::shared_ptr<sim::Gate> v1_wait;  ///< v1: arrival of current request
    std::shared_ptr<sim::Gate> all_arrived;
    /// Opens when the packetizer consumed the whole message; the engine
    /// must not recycle Active before this (the packetizer references it).
    std::shared_ptr<sim::Gate> packetize_done;
  };
  std::unique_ptr<Active> active_;

  std::uint64_t requests_issued_ = 0;
  std::uint64_t bytes_read_ = 0;

  // Observability (inert unless a trace sink is installed; see src/trace).
  trace::Track trace_;  ///< engine lane: setup / per-job spans, req issues
  trace::Counter* m_requests_;
  trace::Counter* m_bytes_;
};

}  // namespace apn::core
