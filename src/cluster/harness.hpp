// Measurement harness shared by the test suite and the bench binaries:
// the paper's synthetic benchmarks (§V-B/C) coded against the RDMA API,
// plus the MVAPICH-style OSU bandwidth/latency equivalents over minimpi.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"

namespace apn::cluster {

/// A measurement buffer of the requested memory type on one node. Host
/// buffers are page-aligned so the card's V2P scatter behaviour — and
/// therefore the measured timing — does not depend on where the allocator
/// happened to place them (keeps benches bit-reproducible under ASLR and
/// malloc tuning).
struct Buf {
  std::uint64_t addr = 0;
  std::shared_ptr<std::vector<std::uint8_t>> host;  // host buffers only

  static Buf make(Node& node, core::MemType type, std::uint64_t size) {
    Buf b;
    if (type == core::MemType::kGpu || type == core::MemType::kGpuBar1) {
      b.addr = node.cuda().malloc_device(0, size);
    } else {
      b.host = std::make_shared<std::vector<std::uint8_t>>(size + 4096);
      std::uint64_t raw = reinterpret_cast<std::uint64_t>(b.host->data());
      b.addr = (raw + 4095) & ~4095ull;
    }
    return b;
  }
};

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

/// Sender-side occupancy per message during a windowed bandwidth test —
/// the LogP host overhead `o` of Fig. 10.
Time host_overhead(Cluster& c, std::uint64_t size, int count,
                   TwoNodeOptions opt = {}, int window = 8);

/// OSU-style G-G bandwidth/latency over minimpi/IB (MVAPICH reference
/// curves of Figs. 7 and 9). Buffers are GPU memory on both ends.
BwResult ib_gg_bandwidth(Cluster& c, std::uint64_t size, int count);
Time ib_gg_latency(Cluster& c, std::uint64_t size, int reps);
BwResult ib_hh_bandwidth(Cluster& c, std::uint64_t size, int count);
Time ib_hh_latency(Cluster& c, std::uint64_t size, int reps);

}  // namespace apn::cluster
