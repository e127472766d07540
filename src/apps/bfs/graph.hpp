// Graph500-style graph machinery for the distributed BFS application
// (paper §V-E): RMAT generator, CSR representation, a sequential reference
// BFS and a graph500-like parent-tree validator.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace apn::apps::bfs {

using Vertex = std::uint32_t;
constexpr std::int64_t kUnreached = -1;

struct EdgeList {
  std::uint64_t n_vertices = 0;
  std::vector<std::pair<Vertex, Vertex>> edges;
};

/// Kronecker/RMAT generator with the graph500 parameters
/// (A,B,C,D) = (0.57, 0.19, 0.19, 0.05); 2^scale vertices,
/// edge_factor * 2^scale edges, with vertex-label shuffling. Throws
/// std::invalid_argument unless 1 <= scale <= 31 and edge_factor >= 1.
EdgeList rmat(int scale, int edge_factor, std::uint64_t seed);

/// Compressed sparse rows over the *undirected* version of an edge list
/// (each input edge contributes both directions; self-loops dropped,
/// multi-edges kept, as graph500 allows).
class Csr {
 public:
  explicit Csr(const EdgeList& el);

  std::uint64_t num_vertices() const { return n_; }
  std::uint64_t num_directed_edges() const { return cols_.size(); }
  /// Undirected edge count as graph500 counts it for TEPS (input edges
  /// minus self loops).
  std::uint64_t num_input_edges() const { return input_edges_; }

  std::uint32_t degree(Vertex v) const {
    return static_cast<std::uint32_t>(row_[v + 1] - row_[v]);
  }
  std::span<const Vertex> neighbors(Vertex v) const {
    return {cols_.data() + row_[v], cols_.data() + row_[v + 1]};
  }

 private:
  std::uint64_t n_ = 0;
  std::uint64_t input_edges_ = 0;
  std::vector<std::uint64_t> row_;
  std::vector<Vertex> cols_;
};

/// `Csr(rmat(scale, edge_factor, seed))`, built once and shared read-only:
/// graph500's kernel 1, untimed. A one-slot memo guarded by a mutex, so
/// threads asking for one key concurrently wait for a single build; a
/// different key replaces the slot (callers holding the old graph keep it).
/// Throws what rmat throws.
std::shared_ptr<const Csr> shared_graph(int scale, int edge_factor,
                                        std::uint64_t seed);

/// Sequential level-synchronous BFS: levels[v] = depth or kUnreached.
/// Throws std::out_of_range unless root < g.num_vertices().
std::vector<std::int64_t> bfs_levels(const Csr& g, Vertex root);

/// The reference search of one (graph, root), computed from the graph
/// alone: `bfs_levels` and its `traversed_edges`.
struct Reference {
  std::vector<std::int64_t> levels;
  std::uint64_t traversed_edges = 0;
};

/// The Reference of (*g, root), computed once and shared read-only: a
/// one-slot memo like shared_graph's. It is keyed on the graph object,
/// not its address (the slot holds a weak_ptr, so a freed graph's recycled
/// address never matches), and on the root; a new key replaces the slot
/// (callers holding the old reference keep it). g must not be null.
/// Throws what bfs_levels throws.
std::shared_ptr<const Reference> shared_reference(
    const std::shared_ptr<const Csr>& g, Vertex root);

/// graph500-style validation of a parent tree against `ref_levels`, the
/// reference `bfs_levels(g, root)` the caller already holds: root is its
/// own parent at reference level 0, reachability equals the reference, and
/// every other reached vertex has an in-range parent, joined to it by a
/// graph edge, exactly one reference level lower. Levels then fall by 1
/// along every parent chain, so each chain ends at the root without a
/// cycle and the tree's depths are the reference levels. A root or parent
/// entry outside [0, n) (other than kUnreached), or a reference of the
/// wrong size, fails validation.
bool validate_parents(const Csr& g, Vertex root,
                      std::span<const std::int64_t> parents,
                      std::span<const std::int64_t> ref_levels,
                      std::string* error = nullptr);

/// The same check against a reference BFS it runs itself.
bool validate_parents(const Csr& g, Vertex root,
                      std::span<const std::int64_t> parents,
                      std::string* error = nullptr);

/// Edges within the traversed component (counted once per undirected
/// edge), the TEPS numerator. Throws std::invalid_argument unless
/// levels.size() == g.num_vertices().
std::uint64_t traversed_edges(const Csr& g,
                              std::span<const std::int64_t> levels);

/// A root with nonzero degree (graph500 picks search keys this way).
/// Throws std::invalid_argument if the graph has no edges.
Vertex pick_root(const Csr& g, std::uint64_t seed);

}  // namespace apn::apps::bfs
