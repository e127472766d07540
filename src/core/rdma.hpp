// RdmaDevice: the APEnet+ host-side RDMA library (§IV-A of the paper).
//
// The programming model is RDMA PUT against 64-bit virtual addresses:
// buffers — host or GPU, discriminated through the CUDA UVA — are
// registered (programmed into the card's BUF_LIST and V2P tables) and can
// then be the target of PUTs from any node. On the transmit side, the
// source memory type can be given explicitly via a flag (avoiding the
// cuPointerGetAttribute call) or auto-detected; GPU source buffers are
// mapped on the fly on first use and kept in an internal registration
// cache, exactly as the paper describes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "core/card.hpp"
#include "simcuda/runtime.hpp"

namespace apn::core {

struct RdmaParams {
  Time put_overhead = units::us(0.7);  ///< per-PUT driver work (host CPU)
  Time pointer_query_cost = units::ns(400);  ///< cuPointerGetAttribute
  Time register_host_cost = units::us(18);
  Time register_host_per_page = units::ns(250);  ///< 4 KB pages
  Time register_gpu_cost = units::us(45);  ///< token retrieval + ioctl
  Time register_gpu_per_page = units::ns(600);  ///< 64 KB pages
  Time event_poll_cost = units::ns(150);
};

/// Source memory type flag of the PUT API ("chosen at compilation time by
/// passing a flag", §IV-A). kAuto pays the pointer-attribute query.
/// kGpuBar1 transmits a GPU buffer through a BAR1 mapping with plain PCIe
/// memory reads instead of the peer-to-peer protocol — slow on Fermi
/// (~150 MB/s) but competitive on Kepler (paper §III/Table I).
enum class MemType { kAuto, kHost, kGpu, kGpuBar1 };

class RdmaDevice {
 public:
  RdmaDevice(ApenetCard& card, cuda::Runtime* cuda_runtime,
             std::uint32_t pid = 0, RdmaParams params = {});

  ApenetCard& card() { return *card_; }
  const RdmaParams& params() const { return params_; }
  TorusCoord coord() const { return card_->coord(); }

  // ---- registration ----------------------------------------------------------
  /// Register a buffer for RDMA (BUF_LIST + V2P programming).
  /// Returns a future completing when the mapping is live; idempotent for
  /// cached buffers (completes immediately at zero cost).
  sim::Future<bool> register_buffer(std::uint64_t addr, std::uint64_t len,
                                    MemType type = MemType::kAuto);
  void deregister_buffer(std::uint64_t addr);
  bool is_registered(std::uint64_t addr, std::uint64_t len = 1) const;
  std::size_t registration_cache_size() const { return cache_.size(); }
  std::uint64_t registration_cache_hits() const { return cache_hits_; }
  std::uint64_t registration_cache_misses() const { return cache_misses_; }

  // ---- data movement --------------------------------------------------------
  struct Put {
    std::uint64_t msg_id = 0;
    /// Opens when the message has fully left the local card.
    std::shared_ptr<sim::Gate> tx_done;
  };

  /// RDMA PUT of [local_addr, +len) to `remote_vaddr` on node `dst`.
  /// GPU source buffers not yet registered are mapped on the fly (cache
  /// miss cost). `carry_data=false` sends timing-only payloads.
  Put put(TorusCoord dst, std::uint64_t local_addr, std::uint64_t len,
          std::uint64_t remote_vaddr, MemType type = MemType::kAuto,
          bool carry_data = true);

  /// Receive-completion event stream (one event per inbound PUT).
  sim::Queue<RdmaEvent>& events() { return card_->rx_events(); }

  /// Polling receive (the API style the paper's tests use): charges the
  /// event-poll cost, then suspends until an event is available.
  sim::Future<RdmaEvent> wait_event();

 private:
  struct Registration {
    std::uint64_t len = 0;
    bool is_gpu = false;
    std::uint64_t bar1_addr = 0;  ///< nonzero once BAR1-mapped
  };
  const Registration* find_registration(std::uint64_t addr,
                                        std::uint64_t len) const;
  Registration* find_registration_mut(std::uint64_t addr, std::uint64_t len,
                                      std::uint64_t* base);
  sim::Coro do_put(TorusCoord dst, std::uint64_t local_addr,
                   std::uint64_t len, std::uint64_t remote_vaddr,
                   MemType type, bool carry_data,
                   std::shared_ptr<sim::Gate> tx_done, std::uint64_t msg_id);

  sim::Simulator* sim_;
  ApenetCard* card_;
  cuda::Runtime* cuda_;
  // apn-lint: allow(check-coverage) — fixed at construction, never mutated
  std::uint32_t pid_;
  RdmaParams params_;
  std::map<std::uint64_t, Registration> cache_;  // base -> registration
  std::uint64_t next_seq_ = 1;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
};

}  // namespace apn::core
