#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "apps/bfs/bfs.hpp"

namespace apn::apps::bfs {
namespace {

using cluster::Cluster;

// ---------------------------------------------------------------------------
// Graph machinery
// ---------------------------------------------------------------------------

TEST(Rmat, SizesMatchParameters) {
  EdgeList el = rmat(10, 16, 1);
  EXPECT_EQ(el.n_vertices, 1024u);
  EXPECT_EQ(el.edges.size(), 16384u);
  for (auto [u, v] : el.edges) {
    EXPECT_LT(u, 1024u);
    EXPECT_LT(v, 1024u);
  }
}

TEST(Rmat, DeterministicForSeed) {
  EdgeList a = rmat(8, 8, 3), b = rmat(8, 8, 3);
  EXPECT_EQ(a.edges, b.edges);
  EdgeList c = rmat(8, 8, 4);
  EXPECT_NE(a.edges, c.edges);
}

TEST(Rmat, SkewedDegreeDistribution) {
  EdgeList el = rmat(12, 16, 1);
  Csr g(el);
  std::uint32_t max_deg = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    max_deg = std::max(max_deg, g.degree(v));
  // Power-law-ish: the hottest vertex is far above the mean degree (32).
  EXPECT_GT(max_deg, 200u);
}

// FNV-1a 64 over the edge list, each (u, v) hashed as two little-endian
// uint32s, byte by byte.
std::uint64_t edge_digest(const EdgeList& el) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](std::uint32_t x) {
    for (int i = 0; i < 4; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (auto [u, v] : el.edges) {
    mix(u);
    mix(v);
  }
  return h;
}

TEST(Rmat, GoldenDigest) {
  // Pins the generator's exact output: any change to the Rng stream, the
  // quadrant choice, the permutation or the edge order moves these.
  EXPECT_EQ(edge_digest(rmat(15, 16, 1)), 0x7eb60deacaef42a0ull);
  EXPECT_EQ(edge_digest(rmat(12, 16, 7)), 0x6822831eff18d99eull);
  EXPECT_EQ(edge_digest(rmat(1, 4, 3)), 0x7f2c7e45f3148ea4ull);
}

TEST(Rmat, RejectsScaleOutsideRange) {
  EXPECT_THROW(rmat(0, 16, 1), std::invalid_argument);
  EXPECT_THROW(rmat(-1, 16, 1), std::invalid_argument);
  EXPECT_THROW(rmat(32, 16, 1), std::invalid_argument);
}

TEST(Rmat, RejectsEdgeFactorBelowOne) {
  EXPECT_THROW(rmat(4, 0, 1), std::invalid_argument);
  EXPECT_THROW(rmat(4, -3, 1), std::invalid_argument);
}

TEST(PickRoot, ThrowsOnGraphWithoutEdges) {
  // What a scale-0 R-MAT graph would be: only self-loops, which the Csr
  // drops, so no vertex has a neighbour to search from.
  EdgeList el;
  el.n_vertices = 2;
  el.edges = {{0, 0}, {1, 1}, {0, 0}};
  Csr g(el);
  EXPECT_THROW(pick_root(g, 1), std::invalid_argument);
}

TEST(Csr, UndirectedAndSymmetric) {
  EdgeList el;
  el.n_vertices = 4;
  el.edges = {{0, 1}, {1, 2}, {2, 2}, {0, 3}};  // one self-loop dropped
  Csr g(el);
  EXPECT_EQ(g.num_input_edges(), 3u);
  EXPECT_EQ(g.num_directed_edges(), 6u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 1u);
  // Symmetry: w in adj(v) <=> v in adj(w).
  for (Vertex v = 0; v < 4; ++v)
    for (Vertex w : g.neighbors(v)) {
      bool found = false;
      for (Vertex x : g.neighbors(w))
        if (x == v) found = true;
      EXPECT_TRUE(found);
    }
}

TEST(SequentialBfs, LevelsOnKnownGraph) {
  EdgeList el;
  el.n_vertices = 6;
  el.edges = {{0, 1}, {1, 2}, {2, 3}, {0, 4}};  // 5 is isolated
  Csr g(el);
  auto lv = bfs_levels(g, 0);
  EXPECT_EQ(lv[0], 0);
  EXPECT_EQ(lv[1], 1);
  EXPECT_EQ(lv[2], 2);
  EXPECT_EQ(lv[3], 3);
  EXPECT_EQ(lv[4], 1);
  EXPECT_EQ(lv[5], kUnreached);
}

/// A parent tree consistent with `levels`: each reached vertex other than
/// the root picks its first neighbour one level up.
std::vector<std::int64_t> tree_from_levels(
    const Csr& g, Vertex root, const std::vector<std::int64_t>& levels) {
  std::vector<std::int64_t> parents(g.num_vertices(), kUnreached);
  parents[root] = root;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (levels[v] <= 0) continue;
    for (Vertex w : g.neighbors(v))
      if (levels[w] == levels[v] - 1) {
        parents[v] = w;
        break;
      }
  }
  return parents;
}

TEST(ValidateParents, AcceptsCorrectTree) {
  EdgeList el = rmat(8, 8, 2);
  Csr g(el);
  Vertex root = pick_root(g, 1);
  const auto parents = tree_from_levels(g, root, bfs_levels(g, root));
  std::string err;
  EXPECT_TRUE(validate_parents(g, root, parents, &err)) << err;
}

TEST(ValidateParents, RejectsBrokenTrees) {
  EdgeList el;
  el.n_vertices = 4;
  el.edges = {{0, 1}, {1, 2}, {2, 3}};
  Csr g(el);
  std::vector<std::int64_t> parents = {0, 0, 1, 2};
  EXPECT_TRUE(validate_parents(g, 0, parents));
  // Parent edge not in graph.
  std::vector<std::int64_t> bad1 = {0, 0, 0, 2};  // 2's parent 0: no edge
  EXPECT_FALSE(validate_parents(g, 0, bad1));
  // Root not its own parent.
  std::vector<std::int64_t> bad2 = {1, 0, 1, 2};
  EXPECT_FALSE(validate_parents(g, 0, bad2));
  // Unreached vertex that the reference reaches.
  std::vector<std::int64_t> bad3 = {0, 0, 1, kUnreached};
  EXPECT_FALSE(validate_parents(g, 0, bad3));
  // Out-of-range entries are rejected before anything indexes by them.
  std::string err;
  std::vector<std::int64_t> above = {0, 0, 1, 4 + 3};
  EXPECT_FALSE(validate_parents(g, 0, above, &err));
  EXPECT_EQ(err, "parent out of range");
  std::vector<std::int64_t> negative = {0, 0, -2, 2};
  EXPECT_FALSE(validate_parents(g, 0, negative, &err));
  EXPECT_EQ(err, "parent out of range");
  EXPECT_FALSE(validate_parents(g, 4, parents, &err));
  EXPECT_EQ(err, "root out of range");
}

// A star with hub 0 and leaves 1..5, plus vertex 6 hanging off leaf 1:
// degrees are 5 (hub), 2 (leaf 1) and 1 (everything else), so tree edges
// are checked from either end depending on which list is shorter.
Csr star_plus_one() {
  EdgeList el;
  el.n_vertices = 7;
  el.edges = {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 6}};
  return Csr(el);
}

TEST(ValidateParents, StarAcceptsTreesCheckedFromEitherEnd) {
  Csr g = star_plus_one();
  // Leaves point at the hub: each edge is checked from the leaf.
  std::vector<std::int64_t> from_hub = {0, 0, 0, 0, 0, 0, 1};
  std::string err;
  EXPECT_TRUE(validate_parents(g, 0, from_hub, &err)) << err;
  // Rooted at leaf 1, the hub's own parent edge is checked from leaf 1.
  std::vector<std::int64_t> from_leaf = {1, 1, 0, 0, 0, 0, 1};
  EXPECT_TRUE(validate_parents(g, 1, from_leaf, &err)) << err;
}

TEST(ValidateParents, StarRejectsHubWithNonAdjacentLowDegreeParent) {
  Csr g = star_plus_one();
  // Rooted at 6, the hub claims 6 as parent; 6's one neighbour is 1.
  std::vector<std::int64_t> parents = {6, 6, 0, 0, 0, 0, 6};
  std::string err;
  EXPECT_FALSE(validate_parents(g, 6, parents, &err));
  EXPECT_EQ(err, "parent edge not present in graph");
}

TEST(ValidateParents, StarRejectsLowDegreeChildClaimingHub) {
  Csr g = star_plus_one();
  // 6 claims the hub as parent, but hangs off leaf 1.
  std::vector<std::int64_t> parents = {0, 0, 0, 0, 0, 0, 0};
  std::string err;
  EXPECT_FALSE(validate_parents(g, 0, parents, &err));
  EXPECT_EQ(err, "parent edge not present in graph");
}

TEST(TraversedEdges, CountsComponentEdgesOnce) {
  EdgeList el;
  el.n_vertices = 5;
  el.edges = {{0, 1}, {1, 2}, {3, 4}};  // two components
  Csr g(el);
  auto lv = bfs_levels(g, 0);
  EXPECT_EQ(traversed_edges(g, lv), 2u);
}

TEST(SequentialBfs, RootOutsideGraphThrows) {
  Csr g = star_plus_one();
  EXPECT_THROW(bfs_levels(g, 7), std::out_of_range);
  EXPECT_THROW(bfs_levels(g, 1000), std::out_of_range);
}

TEST(TraversedEdges, LevelsOfWrongSizeThrow) {
  Csr g = star_plus_one();
  const std::vector<std::int64_t> shorter(6, 0), longer(8, 0);
  EXPECT_THROW(traversed_edges(g, shorter), std::invalid_argument);
  EXPECT_THROW(traversed_edges(g, longer), std::invalid_argument);
}

TEST(ValidateParents, GivenReferenceLevelsMatchesOwnReference) {
  Csr g = star_plus_one();
  const auto ref = bfs_levels(g, 0);
  const std::vector<std::int64_t> good = {0, 0, 0, 0, 0, 0, 1};
  const std::vector<std::int64_t> bad = {0, 0, 0, 0, 0, 0, 0};
  std::string err;
  EXPECT_TRUE(validate_parents(g, 0, good, ref, &err)) << err;
  EXPECT_FALSE(validate_parents(g, 0, bad, ref, &err));
  EXPECT_EQ(err, "parent edge not present in graph");
  // A consistent tree checked against another root's BFS.
  EXPECT_FALSE(validate_parents(g, 0, good, bfs_levels(g, 1), &err));
  EXPECT_EQ(err, "level differs from reference BFS");
}

TEST(ValidateParents, ReferenceLevelsOfWrongSizeFail) {
  Csr g = star_plus_one();
  const std::vector<std::int64_t> parents = {0, 0, 0, 0, 0, 0, 1};
  const auto ref = bfs_levels(g, 0);
  const std::span<const std::int64_t> shorter(ref.data(), ref.size() - 1);
  std::string err;
  EXPECT_FALSE(validate_parents(g, 0, parents, shorter, &err));
  EXPECT_EQ(err, "reference levels size mismatch");
  EXPECT_FALSE(validate_parents(g, 0, parents, {}, &err));
  EXPECT_EQ(err, "reference levels size mismatch");
}

TEST(ValidateParents, RejectsParentCycleAmongReachedVertices) {
  // 0 - 1 - 2 - 3 - 1: vertices 1, 2 and 3 are reached, and every edge a
  // cycle below uses exists.
  EdgeList el;
  el.n_vertices = 4;
  el.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 1}};
  Csr g(el);
  const auto ref = bfs_levels(g, 0);
  ASSERT_TRUE(validate_parents(g, 0, std::vector<std::int64_t>{0, 0, 1, 1},
                               ref));
  // A two-cycle 2 <-> 3, and a three-cycle 1 -> 3 -> 2 -> 1: neither
  // reaches the root.
  for (const std::vector<std::int64_t>& cyclic :
       {std::vector<std::int64_t>{0, 0, 3, 2},
        std::vector<std::int64_t>{0, 3, 1, 2}}) {
    std::string err;
    EXPECT_FALSE(validate_parents(g, 0, cyclic, ref, &err));
    EXPECT_FALSE(validate_parents(g, 0, cyclic, &err));
  }
}

TEST(ValidateParents, SingleEntryMutationsAcceptedIffParentIsOneLevelUp) {
  const Csr g(rmat(10, 8, 5));
  const Vertex root = pick_root(g, 2);
  const auto ref = bfs_levels(g, root);
  const std::vector<std::int64_t> tree = tree_from_levels(g, root, ref);
  std::string err;
  ASSERT_TRUE(validate_parents(g, root, tree, ref, &err)) << err;
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  auto adjacent = [&](Vertex v, std::int64_t p) {
    if (p < 0 || p >= n) return false;
    const auto adj = g.neighbors(v);
    return std::find(adj.begin(), adj.end(), static_cast<Vertex>(p)) !=
           adj.end();
  };

  Rng rng(11);
  int accepted = 0, rejected = 0;
  std::vector<std::int64_t> parents = tree;
  for (int i = 0; i < 4000; ++i) {
    const auto v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    std::int64_t p = 0;
    switch (rng.next_below(6)) {
      case 0:  // any vertex
        p = static_cast<std::int64_t>(rng.next_below(g.num_vertices()));
        break;
      case 1: {  // a neighbour, one level up or not
        const auto adj = g.neighbors(v);
        p = adj.empty() ? kUnreached
                        : adj[rng.next_below(adj.size())];
        break;
      }
      case 2:
        p = kUnreached;
        break;
      case 3:  // outside [0, n)
        p = rng.next_below(2) == 0 ? n + static_cast<std::int64_t>(
                                             rng.next_below(4))
                                   : -2;
        break;
      case 4:
        p = v;
        break;
      default:  // the tree's own entry: no change
        p = tree[v];
        break;
    }
    parents[v] = p;
    const bool expected =
        p == tree[v] ||
        (adjacent(v, p) && ref[static_cast<Vertex>(p)] == ref[v] - 1);
    EXPECT_EQ(validate_parents(g, root, parents, ref, &err), expected)
        << "parents[" << v << "] = " << p << " (tree " << tree[v]
        << ", level " << ref[v] << "): " << err;
    (expected ? accepted : rejected) += 1;
    parents[v] = tree[v];
  }
  // Both outcomes are well represented.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

// ---------------------------------------------------------------------------
// Shared graphs and references
// ---------------------------------------------------------------------------

/// Same vertex count, degrees and neighbour lists, in order.
void expect_same_graph(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_directed_edges(), b.num_directed_edges());
  EXPECT_EQ(a.num_input_edges(), b.num_input_edges());
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "vertex " << v;
    const auto na = a.neighbors(v), nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin())) << "vertex " << v;
  }
}

TEST(SharedGraph, RunsOfOneKeyShareOneGraph) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, core::ApenetParams{}, false);
  BfsConfig cfg;
  cfg.scale = 9;
  cfg.edge_factor = 8;
  cfg.seed = 21;
  BfsRun a(*c, cfg);
  cfg.root_seed = 3;  // per-run state, not part of the key
  BfsRun b(*c, cfg);
  EXPECT_EQ(&a.graph(), &b.graph());
  EXPECT_EQ(&a.graph(), shared_graph(9, 8, 21).get());
  expect_same_graph(a.graph(), Csr(rmat(9, 8, 21)));
}

TEST(SharedGraph, OtherKeyGetsItsOwnFreshlyBuiltGraph) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, core::ApenetParams{}, false);
  BfsConfig cfg;
  cfg.scale = 9;
  cfg.edge_factor = 8;
  cfg.seed = 21;
  BfsRun base(*c, cfg);
  cfg.seed = 22;
  BfsRun other_seed(*c, cfg);
  cfg.scale = 10;
  BfsRun other_scale(*c, cfg);
  EXPECT_NE(&base.graph(), &other_seed.graph());
  EXPECT_NE(&other_seed.graph(), &other_scale.graph());
  expect_same_graph(base.graph(), Csr(rmat(9, 8, 21)));
  expect_same_graph(other_seed.graph(), Csr(rmat(9, 8, 22)));
  expect_same_graph(other_scale.graph(), Csr(rmat(10, 8, 22)));
  // Going back to the first key rebuilds it: equal, not the held object.
  const auto again = shared_graph(9, 8, 21);
  EXPECT_NE(again.get(), &base.graph());
  expect_same_graph(*again, base.graph());
}

TEST(SharedGraph, ConcurrentCallersWaitForOneBuild) {
  shared_graph(4, 4, 1);  // some other key in the slot
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const Csr>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&got, i] { got[i] = shared_graph(12, 16, 5); });
  for (auto& t : threads) t.join();
  for (const auto& g : got) EXPECT_EQ(g.get(), got[0].get());
  expect_same_graph(*got[0], Csr(rmat(12, 16, 5)));
}

TEST(SharedGraph, BadKeyThrowsAndTheNextCallStillBuilds) {
  EXPECT_THROW(shared_graph(0, 16, 1), std::invalid_argument);
  EXPECT_THROW(shared_graph(4, 0, 1), std::invalid_argument);
  expect_same_graph(*shared_graph(4, 4, 1), Csr(rmat(4, 4, 1)));
}

TEST(SharedReference, OneReferencePerGraphAndRoot) {
  const auto g = shared_graph(10, 8, 31);
  const Vertex root = pick_root(*g, 1);
  const auto a = shared_reference(g, root);
  const auto b = shared_reference(g, root);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->levels, bfs_levels(*g, root));
  EXPECT_EQ(a->traversed_edges, traversed_edges(*g, a->levels));
}

TEST(SharedReference, NewRootReplacesTheSlotAndOldHoldersKeepTheirLevels) {
  const auto g = shared_graph(10, 8, 31);
  const Vertex r1 = pick_root(*g, 1), r2 = pick_root(*g, 2);
  ASSERT_NE(r1, r2);
  const auto first = shared_reference(g, r1);
  const auto second = shared_reference(g, r2);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(first->levels, bfs_levels(*g, r1));
  EXPECT_EQ(second->levels, bfs_levels(*g, r2));
  // Going back to the first root rebuilds it: equal, not the held object.
  const auto again = shared_reference(g, r1);
  EXPECT_NE(again.get(), first.get());
  EXPECT_EQ(again->levels, first->levels);
  EXPECT_EQ(again->traversed_edges, first->traversed_edges);
}

TEST(SharedReference, ConcurrentCallersWaitForOneBuild) {
  const auto g = shared_graph(12, 16, 5);
  const Vertex root = pick_root(*g, 3);
  shared_reference(g, pick_root(*g, 4));  // some other key in the slot
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const Reference>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&got, &g, root, i] {
      got[i] = shared_reference(g, root);
    });
  for (auto& t : threads) t.join();
  for (const auto& r : got) EXPECT_EQ(r.get(), got[0].get());
  EXPECT_EQ(got[0]->levels, bfs_levels(*g, root));
}

TEST(SharedReference, FreedGraphNeverReturnsStaleLevels) {
  // Graphs of one size built and freed in turn, searched from one root: a
  // new graph may land where the freed one was, and must still get its
  // own levels.
  const EdgeList a = rmat(10, 8, 41), b = rmat(10, 8, 42);
  Vertex root = 0;
  const Csr ga(a), gb(b);
  while (ga.degree(root) == 0 || gb.degree(root) == 0) ++root;
  ASSERT_NE(bfs_levels(ga, root), bfs_levels(gb, root));
  for (int i = 0; i < 6; ++i) {
    auto g = std::make_shared<const Csr>(i % 2 == 0 ? a : b);
    const auto ref = shared_reference(g, root);
    EXPECT_EQ(ref->levels, bfs_levels(*g, root)) << "graph " << i;
    EXPECT_EQ(ref->traversed_edges, traversed_edges(*g, ref->levels));
  }
}

TEST(SharedReference, LevelsEqualSequentialBfs) {
  for (int scale : {10, 11, 12}) {
    const auto g = shared_graph(scale, 16, 9);
    for (std::uint64_t seed : {1, 2, 3}) {
      const Vertex root = pick_root(*g, seed);
      const auto levels = bfs_levels(*g, root);
      const auto ref = shared_reference(g, root);
      EXPECT_EQ(ref->levels, levels) << "scale " << scale << " root " << root;
      EXPECT_EQ(ref->traversed_edges, traversed_edges(*g, levels));
    }
  }
}

TEST(SharedReference, RootOutsideGraphThrowsAndTheNextCallStillBuilds) {
  const auto g = shared_graph(4, 4, 1);
  EXPECT_THROW(shared_reference(g, 16), std::out_of_range);
  EXPECT_EQ(shared_reference(g, 1)->levels, bfs_levels(*g, 1));
}

// ---------------------------------------------------------------------------
// Distributed BFS through the full stack
// ---------------------------------------------------------------------------

class BfsNetTest : public ::testing::TestWithParam<std::pair<BfsNet, int>> {};

TEST_P(BfsNetTest, ParentTreeValidatesEndToEnd) {
  auto [net, np] = GetParam();
  sim::Simulator sim;
  std::unique_ptr<Cluster> c =
      net == BfsNet::kIb
          ? Cluster::make_cluster_ii(sim, np)
          : Cluster::make_cluster_i(sim, np, core::ApenetParams{}, false);
  BfsConfig cfg;
  cfg.scale = 9;
  cfg.edge_factor = 8;
  cfg.net = net;
  BfsRun run(*c, cfg);
  BfsMetrics m = run.run();
  EXPECT_TRUE(m.validated);
  EXPECT_GT(m.teps, 0.0);
  EXPECT_GT(m.levels, 1);
}

INSTANTIATE_TEST_SUITE_P(
    NetsAndSizes, BfsNetTest,
    ::testing::Values(std::make_pair(BfsNet::kApenet, 1),
                      std::make_pair(BfsNet::kApenet, 2),
                      std::make_pair(BfsNet::kApenet, 4),
                      std::make_pair(BfsNet::kApenet, 8),
                      std::make_pair(BfsNet::kIb, 2),
                      std::make_pair(BfsNet::kIb, 4)),
    [](const auto& info) {
      return std::string(info.param.first == BfsNet::kApenet ? "Apenet"
                                                             : "Ib") +
             std::to_string(info.param.second);
    });

TEST(BfsRun, EdgesTraversedMatchesSequentialReference) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, core::ApenetParams{}, false);
  BfsConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  BfsRun run(*c, cfg);
  BfsMetrics m = run.run();
  auto lv = bfs_levels(run.graph(), run.root());
  EXPECT_EQ(m.edges_traversed, traversed_edges(run.graph(), lv));
  std::int64_t max_level = 0;
  for (auto l : lv) max_level = std::max(max_level, l);
  EXPECT_EQ(m.levels, max_level + 1);
}

TEST(BfsRun, RunsOneTraversal) {
  sim::Simulator sim;
  auto c = Cluster::make_cluster_i(sim, 2, core::ApenetParams{}, false);
  BfsConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  BfsRun run(*c, cfg);
  EXPECT_TRUE(run.run().validated);
  EXPECT_THROW(run.run(), std::logic_error);
}

TEST(BfsRun, CommTimeGrowsWithRanks) {
  auto comm = [](int np) {
    sim::Simulator sim;
    auto c = Cluster::make_cluster_i(sim, np, core::ApenetParams{}, false);
    BfsConfig cfg;
    cfg.scale = 10;
    cfg.edge_factor = 8;
    BfsRun run(*c, cfg);
    return run.run().comm_time;
  };
  EXPECT_GT(comm(4), 0);
}

}  // namespace
}  // namespace apn::apps::bfs
