// Distributed level-synchronous BFS over a cluster of (simulated) GPUs —
// the paper's §V-E application (Table IV, Fig. 12).
//
// 1-D block partition of the vertices across ranks. Per level, each rank:
//   * scans the adjacency of its local frontier (GPU kernel, timed via the
//     edge-scan rate of the GPU model),
//   * deduplicates destinations per remote owner and exchanges (child,
//     parent) pairs with every other rank — the all-to-all pattern the
//     paper calls out as stressing the interconnect,
//   * integrates inbound pairs into its local parent array and next
//     frontier (second GPU kernel),
//   * joins a global sum of next-frontier sizes to detect termination.
//
// Transports: APEnet+ RDMA PUTs between pre-registered per-peer GPU
// buffers (P2P=ON — how the paper's APEnet+ BFS [17] works), or minimpi
// over IB (the MPI reference). Payloads are always real bytes: the
// resulting parent tree is validated against a sequential reference.
//
// As in graph500, the graph is built once (kernel 1, untimed) and only the
// searches are per run: every BfsRun with the same (scale, edge_factor,
// seed) shares one read-only Csr from shared_graph(), every run of one
// (graph, root) shares one reference search from shared_reference(), and
// all per-run state lives in the run's RankStates and parent array.
#pragma once

#include <memory>

#include "apps/bfs/graph.hpp"
#include "cluster/cluster.hpp"

namespace apn::apps::bfs {

enum class BfsNet { kApenet, kIb };

struct BfsConfig {
  int scale = 12;
  int edge_factor = 16;
  std::uint64_t seed = 1;
  BfsNet net = BfsNet::kApenet;
  std::uint64_t root_seed = 7;
};

struct BfsMetrics {
  Time wall = 0;
  double teps = 0;
  std::uint64_t edges_traversed = 0;
  int levels = 0;
  Time compute_time = 0;  ///< rank 0: kernel time
  Time comm_time = 0;     ///< rank 0: exchange + reduction wait
  bool validated = false;
};

class BfsRun {
 public:
  /// Takes the graph from shared_graph(): the first run of a key builds it,
  /// later runs share it read-only (it is the same on every node).
  BfsRun(cluster::Cluster& cluster, BfsConfig config);
  ~BfsRun();

  /// One traversal from root(), validated against the reference BFS.
  /// Call it once: a second call throws std::logic_error.
  BfsMetrics run();

  const Csr& graph() const { return *graph_; }
  Vertex root() const { return root_; }

 private:
  struct RankState;
  sim::Coro rank_main(int rank);
  sim::Coro apenet_exchange(int rank, int level,
                            std::shared_ptr<sim::Gate> done);
  sim::Coro ib_exchange(int rank, int level,
                        std::shared_ptr<sim::Gate> done);

  Vertex owner(Vertex v) const {
    Vertex o = v / per_rank_;
    return o >= static_cast<Vertex>(np_) ? static_cast<Vertex>(np_ - 1) : o;
  }
  Vertex lo(int rank) const { return static_cast<Vertex>(rank) * per_rank_; }
  Vertex hi(int rank) const {
    return rank + 1 == np_
               ? static_cast<Vertex>(graph_->num_vertices())
               : static_cast<Vertex>(rank + 1) * per_rank_;
  }

  cluster::Cluster& cluster_;
  BfsConfig cfg_;
  int np_;
  Vertex per_rank_ = 0;
  std::shared_ptr<const Csr> graph_;
  Vertex root_ = 0;
  std::vector<std::unique_ptr<RankState>> ranks_;
  int ready_count_ = 0;
  std::vector<std::int64_t> final_parents_;
  int max_level_ = 0;
};

}  // namespace apn::apps::bfs
