// Measurement harness shared by the test suite and the bench binaries:
// the paper's synthetic benchmarks (§V-B/C) coded against the RDMA API,
// plus the MVAPICH-style OSU bandwidth/latency equivalents over minimpi.
// Every entry point throws std::invalid_argument when its message count
// (`count` or `reps`) is below 1, before it allocates any buffer.
#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"

namespace apn::cluster {

/// A measurement buffer of the requested memory type on one node: a UVA
/// device address or a (page-aligned) HostMemory address. It lives as long
/// as the node.
inline std::uint64_t make_buf(Node& node, core::MemType type,
                              std::uint64_t size) {
  return type == core::MemType::kGpu || type == core::MemType::kGpuBar1
             ? node.cuda().malloc_device(0, size)
             : node.hostmem().alloc(size);
}

struct BwResult {
  double mbps = 0;
  Time elapsed = 0;
  std::uint64_t bytes = 0;
};

/// Memory-read / loop-back bandwidth on a single node (paper Table I,
/// Figs. 4-5). The node enqueues `count` PUTs of `size` to itself.
/// With `flush_at_switch` set in the card params, packets evaporate at the
/// internal switch and the result is the pure memory-read bandwidth;
/// otherwise the full loop-back (TX + RX processing) is measured.
BwResult loopback_bandwidth(Cluster& c, int node, core::MemType src_type,
                            std::uint64_t size, int count);

/// Two-node unidirectional bandwidth (paper Figs. 6-7), APEnet+ RDMA PUTs,
/// measured at the receiver like the OSU uni-bandwidth test.
/// `staged_tx`: source GPU data staged through host memory (P2P=OFF TX).
/// `staged_rx`: destination staged through host memory + cudaMemcpy H2D.
struct TwoNodeOptions {
  core::MemType src_type = core::MemType::kHost;
  core::MemType dst_type = core::MemType::kHost;
  bool staged_tx = false;  ///< cudaMemcpy D2H before each PUT
  bool staged_rx = false;  ///< cudaMemcpy H2D after each RX completion
};
BwResult twonode_bandwidth(Cluster& c, std::uint64_t size, int count,
                           TwoNodeOptions opt = {});

/// Half round-trip latency between nodes 0 and 1 (paper Figs. 8-9).
Time pingpong_latency(Cluster& c, std::uint64_t size, int reps,
                      TwoNodeOptions opt = {});

/// Messages host_overhead() keeps in flight: message i + 8 is posted only
/// once message i has left the card.
inline constexpr int kHostOverheadWindow = 8;

/// Sender-side occupancy per message during a windowed bandwidth test —
/// the LogP host overhead `o` of Fig. 10.
Time host_overhead(Cluster& c, std::uint64_t size, int count,
                   TwoNodeOptions opt = {});

/// OSU-style G-G bandwidth/latency over minimpi/IB (MVAPICH reference
/// curves of Figs. 7 and 9). Buffers are GPU memory on both ends.
BwResult ib_gg_bandwidth(Cluster& c, std::uint64_t size, int count);
Time ib_gg_latency(Cluster& c, std::uint64_t size, int reps);
BwResult ib_hh_bandwidth(Cluster& c, std::uint64_t size, int count);
Time ib_hh_latency(Cluster& c, std::uint64_t size, int reps);

}  // namespace apn::cluster
