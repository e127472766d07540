// simcuda: a miniature CUDA-like runtime over the simulated GPUs of one node.
//
// Mirrors the pieces of CUDA the paper depends on (§III-A):
//  * UVA — device allocations receive unique 64-bit addresses disjoint from
//    host pointers; `pointer_info()` plays the role of
//    cuPointerGetAttribute(), classifying an address as host or device and
//    reporting the owning GPU.
//  * P2P tokens — `get_p2p_tokens()` returns what the kernel driver needs
//    to map a GPU buffer for third-party access (per-64 KB-page
//    descriptors, i.e. device offsets in this model).
//  * memcpy — synchronous copies block the calling host process for a
//    constant driver/synchronization overhead plus the DMA transfer
//    (~5 µs + size/5.5 GB/s for D2H: the cost that makes staging lose to
//    peer-to-peer at small message sizes). Async copies only occupy the
//    copy engine and complete a Future.
//  * Streams — FIFO queues of kernels/copies; independent streams overlap,
//    which the HSG application uses to hide boundary computation.
//
// Host addresses are the node's simulated host memory (pcie::HostMemory
// allocations, below kUvaBase); device addresses live at kUvaBase and
// above, so the two can never collide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gpu/gpu.hpp"
#include "pcie/memory.hpp"
#include "sim/coro.hpp"
#include "sim/sync.hpp"

namespace apn::cuda {

using DevPtr = std::uint64_t;

/// Marker for completed stream operations.
struct Unit {};
using Done = sim::Future<Unit>;

enum class MemcpyKind { kHostToDevice, kDeviceToHost, kDeviceToDevice };

struct PointerInfo {
  bool is_device = false;
  int device = -1;             ///< GPU ordinal on this node
  std::uint64_t dev_offset = 0;  ///< offset within that GPU's memory
};

/// P2P handles returned for a GPU buffer (the CU_POINTER_ATTRIBUTE_P2P_TOKENS
/// equivalent): enough for a kernel driver to program a NIC's GPU_V2P table.
struct P2pTokens {
  int device = -1;
  std::uint64_t dev_offset = 0;
  std::uint64_t size = 0;
  static constexpr std::uint64_t kPageBytes = 64 * 1024;
  std::uint64_t page_count() const {
    return (size + kPageBytes - 1) / kPageBytes;
  }
};

struct RuntimeParams {
  /// Host-side driver + synchronization overhead of a *synchronous*
  /// cudaMemcpy. D2H must round-trip to the device and costs ~10 µs (the
  /// paper: "the single cudaMemcpy overhead can be estimated around
  /// 10 µs"); H2D is posted and synchronizes much faster.
  Time d2h_sync_overhead = units::us(7.2);
  Time h2d_sync_overhead = units::us(0.9);
  /// Host-side cost of enqueueing an async op on a stream.
  Time enqueue_overhead = units::ns(300);
  /// cuPointerGetAttribute cost (paper §IV-A: "possibly expensive").
  Time pointer_query_cost = units::ns(400);
};

class Runtime;

/// FIFO stream of device operations. Operations on one stream serialize;
/// operations on different streams overlap (subject to engine contention).
class Stream {
 public:
  Stream(Runtime& rt, int device);

  /// Enqueue a kernel of a precomputed duration; returns its completion.
  Done launch_kernel(Time duration);

  /// Enqueue an async memcpy; returns its completion.
  Done memcpy_async(std::uint64_t dst, std::uint64_t src, std::uint64_t n);

  /// Completion of everything enqueued so far (cudaStreamSynchronize /
  /// cudaEventRecord + query).
  Done record_event() { return tail_; }

  int device() const { return device_; }

 private:
  friend class Runtime;
  Runtime* rt_;
  int device_;
  Done tail_;
};

class Runtime {
 public:
  static constexpr std::uint64_t kUvaBase = 0xC00000000000ull;
  static constexpr std::uint64_t kUvaStride = 1ull << 36;  // 64 GB / device

  static_assert(pcie::HostMemory::kBase + pcie::HostMemory::kSize <=
                    kUvaBase,
                "host allocations must classify as host memory");

  Runtime(sim::Simulator& sim, pcie::HostMemory& host,
          std::vector<gpu::Gpu*> gpus, RuntimeParams params = {});

  sim::Simulator& simulator() { return *sim_; }
  const RuntimeParams& params() const { return params_; }
  int device_count() const { return static_cast<int>(gpus_.size()); }
  gpu::Gpu& device(int i) { return *gpus_.at(static_cast<std::size_t>(i)); }

  // ---- memory -------------------------------------------------------------
  DevPtr malloc_device(int device, std::uint64_t size);
  void free_device(DevPtr ptr);

  /// UVA classification (cuPointerGetAttribute). Host addresses yield
  /// is_device=false. The *time* cost is charged via pointer_query_cost by
  /// callers that model it (the RDMA API does).
  PointerInfo pointer_info(std::uint64_t addr) const;

  /// P2P mapping tokens for [ptr, ptr+size); throws if not device memory.
  P2pTokens get_p2p_tokens(DevPtr ptr, std::uint64_t size) const;

  /// Map a device buffer through BAR1; suspends for the (expensive) GPU
  /// reconfiguration and returns the PCIe address of the mapping.
  struct Bar1MapResult {
    std::uint64_t pcie_addr;
  };
  sim::Future<Bar1MapResult> bar1_map_async(DevPtr ptr, std::uint64_t size);

  // ---- copies ----------------------------------------------------------------
  /// Synchronous memcpy: suspends the calling process for overhead+transfer.
  /// Addresses may be host (HostMemory allocations) or UVA device.
  [[nodiscard]] Done memcpy_sync(std::uint64_t dst, std::uint64_t src,
                                 std::uint64_t n);

  /// Kind classification for a (dst, src) pair.
  MemcpyKind classify(std::uint64_t dst, std::uint64_t src) const;

  // ---- internal helpers used by Stream ---------------------------------------
  Time transfer_time(MemcpyKind kind, int device, Bytes n) const;
  sim::Resource& engine_for(MemcpyKind kind, int device);
  /// Functionally move the bytes (no timing); a host range outside every
  /// HostMemory allocation throws std::out_of_range. Zeros over zeros (both
  /// sides never written) move nothing, so staging backs no memory.
  void move_bytes(std::uint64_t dst, std::uint64_t src, std::uint64_t n);

  /// Data the model produces or consumes outside simulated time (a kernel's
  /// output, a test's fill or check): device memory to and from CPU bytes,
  /// with no timing. Throws std::invalid_argument for a host address.
  void upload(DevPtr dst, std::span<const std::byte> src);
  void download(DevPtr src, std::span<std::byte> dst);

 private:
  friend class Stream;
  sim::Simulator* sim_;
  pcie::HostMemory* host_;
  std::vector<gpu::Gpu*> gpus_;
  RuntimeParams params_;
};

}  // namespace apn::cuda
