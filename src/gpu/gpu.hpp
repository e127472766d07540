// Gpu: a PCIe endpoint modeling an NVIDIA Fermi/Kepler board as seen by
// third-party devices and by the (simulated) CUDA runtime.
//
// Exposed hardware interfaces (the paper's §III background):
//  * GPUDirect peer-to-peer protocol: a request mailbox that third-party
//    devices write read-descriptors into; the GPU answers with *posted
//    writes* of the data to the descriptor's reply address (the two-way
//    protocol that works around chipset bugs with inter-device read
//    completions). Response streaming is bounded by `p2p_stream_rate`
//    (the architectural ~1.5 GB/s Fermi ceiling) and the first response of
//    a request lags it by `p2p_head_latency`.
//  * A P2P *write* window: a sliding 64 KB aperture + window control
//    register, used by the NIC's RX path to write GPU memory; switching
//    the window costs an extra control write (the paper's ~10% RX penalty).
//  * BAR1: a mappable aperture readable/writable with plain PCIe memory
//    operations; read-completion generation is rate-limited (150 MB/s on
//    Fermi, ~1.6 GB/s on Kepler).
//  * DMA copy engines used by cudaMemcpy (not routed through the fabric;
//    see DESIGN.md "known deviations").
//  * A compute engine for kernel-duration modeling.
//
// The P2P response engine and BAR1 read-completion generation are FIFO
// servers with a fixed latency ahead of a serializer: a job queued at t
// finishes at max(t + latency, prev) + bytes / rate. Each is a sim::Channel
// whose latency is that head latency (see sim/channel.hpp), so every 512 B
// P2P completion write and every BAR1 read costs one event.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <span>
#include <stdexcept>

#include "check/check.hpp"
#include "common/fn.hpp"
#include "common/range_allocator.hpp"
#include "gpu/arch.hpp"
#include "gpu/device_memory.hpp"
#include "pcie/fabric.hpp"
#include "sim/channel.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace apn::gpu {

/// Descriptor written into the P2P mailbox by a third-party device.
/// 32 bytes on the wire (matches the paper's ~96 MB/s protocol traffic at
/// 1.5 GB/s data rate with 512 B read granularity).
struct P2pReadDescriptor {
  std::uint64_t dev_offset;  ///< source address in GPU global memory
  std::uint32_t len;         ///< bytes requested
  std::uint32_t flags;       ///< kP2p* bits
  std::uint64_t reply_addr;  ///< PCIe address the data is written back to
  std::uint64_t tag;         ///< opaque requester cookie (echoed, unused here)
};
static_assert(sizeof(P2pReadDescriptor) == 32);

/// P2pReadDescriptor::flags bit: the requester discards the data, so the
/// response engine posts timing-only completions of the same sizes at the
/// same times instead of copying device memory.
constexpr std::uint32_t kP2pTimingOnly = 1u << 0;

/// MMIO layout offsets relative to the GPU's register BAR.
struct GpuMmio {
  static constexpr std::uint64_t kMailbox = 0x000000;
  static constexpr std::uint64_t kWindowCtl = 0x010000;
  static constexpr std::uint64_t kWindowAperture = 0x020000;
  static constexpr std::uint64_t kWindowBytes = 64 * 1024;
  static constexpr std::uint64_t kBar1Aperture = 0x100000;
};

class Gpu : public pcie::Device {
 public:
  /// `name` labels this GPU on the PCIe topology and its trace tracks
  /// (cluster assembly passes "gpu<i>").
  Gpu(sim::Simulator& sim, pcie::Fabric& fabric, GpuArch arch,
      std::uint64_t mmio_base, std::string name = "gpu");

  const GpuArch& arch() const { return arch_; }
  DeviceMemory& memory() { return mem_; }
  const DeviceMemory& memory() const { return mem_; }
  RangeAllocator& allocator() { return alloc_; }

  std::uint64_t mmio_base() const { return mmio_base_; }
  std::uint64_t mmio_size() const {
    return GpuMmio::kBar1Aperture + arch_.bar1_aperture_bytes;
  }
  std::uint64_t mailbox_addr() const { return mmio_base_ + GpuMmio::kMailbox; }
  std::uint64_t window_ctl_addr() const {
    return mmio_base_ + GpuMmio::kWindowCtl;
  }
  std::uint64_t window_aperture_addr() const {
    return mmio_base_ + GpuMmio::kWindowAperture;
  }

  // ---- BAR1 management (driven by the simcuda runtime) -------------------
  /// Map device memory [dev_offset, +size) into the BAR1 aperture; returns
  /// the PCIe address of the mapping. Throws if the aperture is exhausted.
  std::uint64_t bar1_map(std::uint64_t dev_offset, std::uint64_t size);
  void bar1_reset();
  Bytes bar1_mapped_bytes() const { return Bytes(bar1_used_); }

  // ---- copy engines (used by the simcuda runtime) -------------------------
  sim::Resource& copy_engine_d2h() { return copy_d2h_; }
  sim::Resource& copy_engine_h2d() { return copy_h2d_; }
  sim::Resource& compute_engine() { return compute_; }

  // ---- statistics -----------------------------------------------------------
  std::uint64_t p2p_requests_served() const { return p2p_requests_.peek(); }
  int p2p_queue_depth() const { return p2p_queue_depth_; }
  Bytes p2p_bytes_served() const { return Bytes(p2p_bytes_.peek()); }
  std::uint64_t window_switches() const { return window_switches_.peek(); }

  // ---- pcie::Device ----------------------------------------------------------
  void handle_write(std::uint64_t addr, pcie::Payload payload) override;
  void handle_read(std::uint64_t addr, std::uint32_t len, bool with_data,
                   pcie::ReadReply reply) override;

 private:
  void serve_p2p_request(const P2pReadDescriptor& desc);

  sim::Simulator* sim_;
  pcie::Fabric* fabric_;
  GpuArch arch_;
  DeviceMemory mem_;
  RangeAllocator alloc_;
  // apn-lint: allow(check-coverage) — fixed at construction, never mutated
  std::uint64_t mmio_base_;

  sim::Channel p2p_responses_;  ///< head latency + P2P response streaming
  sim::Channel bar1_reads_;     ///< BAR1 read latency + completion rate
  sim::Resource copy_d2h_;
  sim::Resource copy_h2d_;
  sim::Resource compute_;

  std::uint64_t window_page_ = 0;  ///< current P2P write-window target
  std::uint64_t bar1_used_ = 0;
  struct Bar1Mapping {
    std::uint64_t aperture_off, dev_offset, size;
  };
  std::vector<Bar1Mapping> bar1_maps_;

  check::StateCell<std::uint64_t> p2p_requests_{"gpu.p2p_requests"};
  check::StateCell<std::uint64_t> p2p_bytes_{"gpu.p2p_bytes"};
  check::StateCell<std::uint64_t> window_switches_{"gpu.window_switches"};
  int p2p_queue_depth_ = 0;
  std::deque<P2pReadDescriptor> p2p_backlog_;  ///< beyond the queue depth

  // Observability (inert unless a trace sink is installed; see src/trace).
  trace::Track trace_p2p_;   ///< P2P engine lane: head latency + streaming
  trace::Track trace_bar1_;  ///< BAR1 read-completion lane
  trace::Counter* m_p2p_requests_;
  trace::Counter* m_p2p_bytes_;
  trace::Counter* m_window_switches_;
  trace::Counter* m_bar1_reads_;
};

}  // namespace apn::gpu
