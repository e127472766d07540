#include "apps/bfs/graph.hpp"

#include <algorithm>
#include <deque>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>

namespace apn::apps::bfs {

EdgeList rmat(int scale, int edge_factor, std::uint64_t seed) {
  if (scale < 1 || scale > 31)
    throw std::invalid_argument("rmat: scale " + std::to_string(scale) +
                                " outside [1, 31]");
  if (edge_factor < 1)
    throw std::invalid_argument("rmat: edge_factor " +
                                std::to_string(edge_factor) + " < 1");
  const std::uint64_t n = 1ull << scale;
  const std::uint64_t m = n * static_cast<std::uint64_t>(edge_factor);
  Rng rng(seed);

  // Vertex permutation to de-correlate degree and label.
  std::vector<Vertex> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::uint64_t i = n - 1; i > 0; --i) {
    std::uint64_t j = rng.next_below(i + 1);
    std::swap(perm[i], perm[j]);
  }

  // Each bit draws r = y * 2^-53 with y = x >> 11 < 2^53 (Rng::next_double)
  // and picks quadrant A, B, C or D by comparing r against the cumulative
  // probabilities kA, kA+kB, kA+kB+kC. Scaling by 2^-53 is exact, so
  // r < t <=> y < t * 2^53; every threshold lies in [0.5, 1), so t * 2^53
  // is an integer and the comparisons can run on y itself. The quadrant
  // index in binary is (u bit, v bit): u = y >= t2, and v is set for B and
  // D, i.e. when y clears an odd number of the three thresholds. This is
  // the same stream and the same edges as the double compare, bit for bit,
  // with no data-dependent branch.
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
  constexpr double kScale = 0x1.0p53;
  constexpr double kT1 = kA * kScale, kT2 = (kA + kB) * kScale,
                   kT3 = (kA + kB + kC) * kScale;
  constexpr auto exact = [](double t) {
    return static_cast<double>(static_cast<std::uint64_t>(t)) == t;
  };
  static_assert(exact(kT1) && exact(kT2) && exact(kT3),
                "R-MAT thresholds must be exact integers at 2^53");
  constexpr std::uint64_t t1 = static_cast<std::uint64_t>(kT1);
  constexpr std::uint64_t t2 = static_cast<std::uint64_t>(kT2);
  constexpr std::uint64_t t3 = static_cast<std::uint64_t>(kT3);

  EdgeList el;
  el.n_vertices = n;
  el.edges.reserve(m);
  for (std::uint64_t e = 0; e < m; ++e) {
    std::uint64_t u = 0, v = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const std::uint64_t y = rng.next_u64() >> 11;
      const std::uint64_t ge1 = y >= t1, ge2 = y >= t2, ge3 = y >= t3;
      u = (u << 1) | ge2;
      v = (v << 1) | (ge1 ^ ge2 ^ ge3);
    }
    el.edges.emplace_back(perm[u], perm[v]);
  }
  return el;
}

Csr::Csr(const EdgeList& el) : n_(el.n_vertices) {
  row_.assign(n_ + 1, 0);
  for (auto [u, v] : el.edges) {
    if (u == v) continue;
    ++row_[u + 1];
    ++row_[v + 1];
    ++input_edges_;
  }
  for (std::uint64_t i = 0; i < n_; ++i) row_[i + 1] += row_[i];
  cols_.resize(row_[n_]);
  std::vector<std::uint64_t> fill(row_.begin(), row_.end() - 1);
  for (auto [u, v] : el.edges) {
    if (u == v) continue;
    cols_[fill[u]++] = v;
    cols_[fill[v]++] = u;
  }
}

std::shared_ptr<const Csr> shared_graph(int scale, int edge_factor,
                                        std::uint64_t seed) {
  struct Slot {
    std::mutex mu;
    int scale = 0;
    int edge_factor = 0;
    std::uint64_t seed = 0;
    std::shared_ptr<const Csr> graph;
  };
  static Slot slot;
  std::lock_guard lock(slot.mu);
  if (slot.graph == nullptr || slot.scale != scale ||
      slot.edge_factor != edge_factor || slot.seed != seed) {
    // Free the old graph before building the next (unless a run still
    // holds it). The edge list is a temporary, freed once the Csr exists.
    slot.graph.reset();
    slot.graph = std::make_shared<Csr>(rmat(scale, edge_factor, seed));
    slot.scale = scale;
    slot.edge_factor = edge_factor;
    slot.seed = seed;
  }
  return slot.graph;
}

std::vector<std::int64_t> bfs_levels(const Csr& g, Vertex root) {
  if (root >= g.num_vertices())
    throw std::out_of_range("bfs_levels: root " + std::to_string(root) +
                            " outside a graph of " +
                            std::to_string(g.num_vertices()) + " vertices");
  std::vector<std::int64_t> level(g.num_vertices(), kUnreached);
  std::deque<Vertex> q;
  level[root] = 0;
  q.push_back(root);
  while (!q.empty()) {
    Vertex v = q.front();
    q.pop_front();
    for (Vertex w : g.neighbors(v)) {
      if (level[w] == kUnreached) {
        level[w] = level[v] + 1;
        q.push_back(w);
      }
    }
  }
  return level;
}

std::shared_ptr<const Reference> shared_reference(
    const std::shared_ptr<const Csr>& g, Vertex root) {
  struct Slot {
    std::mutex mu;
    std::weak_ptr<const Csr> graph;
    Vertex root = 0;
    std::shared_ptr<const Reference> ref;
  };
  static Slot slot;
  std::lock_guard lock(slot.mu);
  if (slot.ref == nullptr || slot.root != root || slot.graph.lock() != g) {
    // Free the old levels before computing the next (unless a run still
    // holds them).
    slot.ref.reset();
    auto ref = std::make_shared<Reference>();
    ref->levels = bfs_levels(*g, root);
    ref->traversed_edges = traversed_edges(*g, ref->levels);
    slot.ref = std::move(ref);
    slot.graph = g;
    slot.root = root;
  }
  return slot.ref;
}

bool validate_parents(const Csr& g, Vertex root,
                      std::span<const std::int64_t> parents,
                      std::span<const std::int64_t> ref_levels,
                      std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  const std::uint64_t n = g.num_vertices();
  if (parents.size() != n) return fail("parent array size mismatch");
  if (root >= n) return fail("root out of range");
  if (parents[root] != static_cast<std::int64_t>(root))
    return fail("root is not its own parent");
  if (ref_levels.size() != n) return fail("reference levels size mismatch");
  if (ref_levels[root] != 0) return fail("level differs from reference BFS");

  for (std::uint64_t v = 0; v < n; ++v) {
    const std::int64_t p = parents[v];
    if ((p == kUnreached) != (ref_levels[v] == kUnreached))
      return fail("reachability mismatch");
    if (p == kUnreached || v == root) continue;
    if (p < 0 || static_cast<std::uint64_t>(p) >= n)
      return fail("parent out of range");
    // The Csr holds both directions of every edge, so scanning the
    // endpoint with the shorter adjacency list is exact, and avoids
    // walking a hub's list once per child.
    const auto parent = static_cast<Vertex>(p);
    Vertex from = parent, to = static_cast<Vertex>(v);
    if (g.degree(to) < g.degree(from)) std::swap(from, to);
    auto adj = g.neighbors(from);
    if (std::find(adj.begin(), adj.end(), to) == adj.end())
      return fail("parent edge not present in graph");
    // A parent the reference leaves unreached fails even where v's level
    // is 0 (kUnreached + 1 == 0), so every parent that passes is reached.
    if (ref_levels[parent] == kUnreached ||
        ref_levels[v] != ref_levels[parent] + 1)
      return fail("level differs from reference BFS");
  }
  return true;
}

bool validate_parents(const Csr& g, Vertex root,
                      std::span<const std::int64_t> parents,
                      std::string* error) {
  // A root outside the graph has no reference BFS; the check reports it.
  const std::vector<std::int64_t> ref =
      root < g.num_vertices() ? bfs_levels(g, root)
                              : std::vector<std::int64_t>{};
  return validate_parents(g, root, parents, ref, error);
}

std::uint64_t traversed_edges(const Csr& g,
                              std::span<const std::int64_t> levels) {
  if (levels.size() != g.num_vertices())
    throw std::invalid_argument(
        "traversed_edges: " + std::to_string(levels.size()) +
        " levels for a graph of " + std::to_string(g.num_vertices()) +
        " vertices");
  std::uint64_t e2 = 0;  // directed count within the component
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v) {
    if (levels[v] == kUnreached) continue;
    e2 += g.degree(static_cast<Vertex>(v));
  }
  return e2 / 2;
}

Vertex pick_root(const Csr& g, std::uint64_t seed) {
  if (g.num_directed_edges() == 0)
    throw std::invalid_argument("pick_root: graph has no edges");
  Rng rng(seed);
  for (;;) {
    Vertex v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    if (g.degree(v) > 0) return v;
  }
}

}  // namespace apn::apps::bfs
