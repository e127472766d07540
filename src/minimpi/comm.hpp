// minimpi: a small MPI-like message-passing layer over the InfiniBand model,
// with MVAPICH2-style CUDA-awareness (§II of the paper).
//
// Point-to-point semantics:
//  * eager (<= eager_threshold): payload travels inline with a header and
//    is copied into the matched user buffer at the receiver;
//  * rendezvous: RTS -> (receiver matches) CTS carrying a target address ->
//    sender RDMA-writes the data (zero-copy into host user buffers, or into
//    a library bounce buffer when the user buffer is GPU memory).
//
// CUDA-aware paths, mirroring what the paper describes for MVAPICH2:
//  * staged (small/medium messages): a synchronous cudaMemcpy to/from a
//    host vbuf brackets the host transfer — the ~2x 5-10 us penalty that
//    makes IB G-G latency ~17 us;
//  * pipelined (>= gpu_pipeline_threshold): the message moves in chunks,
//    cudaMemcpyAsync and wire transfers overlapping, recovering most of
//    the bandwidth for large messages (Fig. 7's IB curve) — at the price
//    of internal stream synchronizations that can break application-level
//    overlap (the paper's §II criticism).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "ib/hca.hpp"
#include "sim/coro.hpp"
#include "sim/sync.hpp"
#include "simcuda/runtime.hpp"

namespace apn::mpi {

struct MpiParams {
  std::uint32_t eager_threshold = 8 * 1024;
  std::uint32_t gpu_pipeline_threshold = 32 * 1024;
  std::uint32_t gpu_pipeline_chunk = 256 * 1024;
  Time call_overhead = units::us(0.5);   ///< per-MPI-call software cost
  Time gpu_copy_extra = units::us(1.8);  ///< MVAPICH-internal sync per copy
  Rate eager_copy_rate = units::GBps(6);  ///< vbuf <-> user host buffer
  /// Staged copies are performed in blocking fragments of this size
  /// (0 = one copy for the whole message). 2012-era OpenMPI moved device
  /// buffers through small blocking fragments, capping its effective
  /// GPU-to-GPU bandwidth around 1 GB/s.
  std::uint32_t staged_fragment_bytes = 0;
};

/// The MVAPICH2-1.9-style defaults (eager + staged + pipelined large).
inline MpiParams mvapich2_params() { return MpiParams{}; }

/// 2012-era OpenMPI CUDA support: no large-message pipeline, small
/// blocking staging fragments (the paper's "OMPI" reference columns).
inline MpiParams openmpi2012_params() {
  MpiParams p;
  p.gpu_pipeline_threshold = 0xFFFFFFFFu;
  p.staged_fragment_bytes = 12 * 1024;
  return p;
}

using Signal = sim::Future<bool>;

class Rank;

/// One MPI job: the switch plus all rank endpoints.
class World {
 public:
  World(sim::Simulator& sim, MpiParams params = {})
      : sim_(&sim), params_(params), switch_(sim) {}

  sim::Simulator& simulator() { return *sim_; }
  const MpiParams& params() const { return params_; }
  ib::IbSwitch& fabric_switch() { return switch_; }

  void add_rank(Rank& r);
  Rank& rank(int i) { return *ranks_.at(static_cast<std::size_t>(i)); }
  int size() const { return static_cast<int>(ranks_.size()); }

 private:
  sim::Simulator* sim_;
  MpiParams params_;
  ib::IbSwitch switch_;
  std::vector<Rank*> ranks_;
};

class Rank {
 public:
  Rank(World& world, ib::Hca& hca, pcie::HostMemory& hostmem,
       cuda::Runtime* cuda_runtime);

  int rank() const { return hca_->rank(); }
  World& world() { return *world_; }

  /// Send [addr, +n): host (HostMemory) or CUDA UVA device address.
  /// The returned Signal completes when the send buffer is reusable.
  Signal send(int dst, std::uint64_t addr, std::uint64_t n, int tag);

  /// Receive n bytes into [addr, +n) from (src, tag). Completes when the
  /// data is fully in the user buffer (including the GPU copy for device
  /// destinations).
  Signal recv(int src, std::uint64_t addr, std::uint64_t n, int tag);

  /// Convenience collectives (linear algorithms, rank 0 as root).
  Signal barrier();
  Signal allreduce_sum(std::uint64_t* value);

 private:
  friend class World;
  enum class CtrlKind : std::uint32_t {
    kEager = 1,
    kRts = 2,
    kCts = 3,
    kBarrier = 4,
    kReduce = 5,
  };
  struct CtrlHeader {
    CtrlKind kind;
    std::uint32_t tag;
    std::uint32_t bytes;
    std::uint32_t chunks;   ///< rendezvous: number of RDMA chunks
    std::uint64_t rndv_id;
    std::uint64_t aux;      ///< CTS: target address; reduce: value
    std::int32_t src_rank;
    std::int32_t pad;
  };

  struct PendingRecv {
    int src;
    int tag;
    std::uint64_t addr;
    std::uint64_t n;
    Signal done;
  };
  struct UnexpectedMsg {
    CtrlHeader hdr;
    std::vector<std::uint8_t> data;  ///< eager payload
  };
  struct RndvRecv {
    std::uint64_t user_addr = 0;
    bool user_is_gpu = false;
    std::uint64_t n = 0;
    std::uint32_t chunks = 0;
    std::uint32_t chunks_arrived = 0;
    std::uint64_t bounce = 0;  ///< GPU destination: host bounce buffer
    std::uint32_t h2d_inflight = 0;
    bool all_arrived = false;
    Signal done;
    RndvRecv(sim::Simulator& s) : done(s) {}
  };
  struct RndvSend {
    int dst = 0;
    std::uint64_t addr = 0;
    std::uint64_t n = 0;
    bool is_gpu = false;
    Signal done;
    RndvSend(sim::Simulator& s) : done(s) {}
  };

  sim::Coro progress_loop();
  /// Serialized cost of one staged (synchronous) GPU<->vbuf copy. All
  /// staged copies of a rank queue on copy_serializer_: the MPI library's
  /// host thread performs cudaMemcpy calls one at a time, which is why
  /// many concurrent small device-buffer messages pay the full per-copy
  /// latency back to back.
  Time staged_copy_cost(std::uint64_t dst, std::uint64_t src,
                        std::uint64_t n) const;
  /// Perform a staged copy in blocking fragments; opens `done` at the end.
  sim::Coro staged_copy(std::uint64_t dst, std::uint64_t src,
                        std::uint64_t n, std::shared_ptr<sim::Gate> done);
  sim::Coro do_send(int dst, std::uint64_t addr, std::uint64_t n, int tag,
                    Signal done);
  sim::Coro run_rndv_send(CtrlHeader cts);
  sim::Coro finish_eager_recv(PendingRecv pr, std::vector<std::uint8_t> data);
  void match_or_store(CtrlHeader hdr, std::vector<std::uint8_t> data);
  void start_rndv_recv(const CtrlHeader& rts, const PendingRecv& pr);
  void send_ctrl(int dst, const CtrlHeader& hdr,
                 const std::vector<std::uint8_t>& payload = {});
  bool is_gpu_ptr(std::uint64_t addr) const;

  World* world_;
  ib::Hca* hca_;
  pcie::HostMemory* hostmem_;
  cuda::Runtime* cuda_;
  std::unique_ptr<cuda::Stream> stream_;  ///< pipeline copies
  sim::Simulator* sim_;
  std::unique_ptr<sim::Resource> copy_serializer_;  ///< staged-copy host thread

  std::deque<PendingRecv> posted_;
  std::deque<UnexpectedMsg> unexpected_;
  std::map<std::uint64_t, std::unique_ptr<RndvRecv>> rndv_recv_;
  std::map<std::uint64_t, std::unique_ptr<RndvSend>> rndv_send_;
  std::uint64_t next_rndv_ = 1;

  // Collective helper state.
  int barrier_hits_ = 0;
  std::vector<Signal> barrier_waiters_;
  std::uint64_t reduce_accum_ = 0;
  int reduce_hits_ = 0;
  std::vector<std::pair<std::uint64_t*, Signal>> reduce_waiters_;
};

}  // namespace apn::mpi
