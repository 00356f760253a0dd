// Tests for the node2vec walkers (on-the-fly and rejection-sampling),
// context windowing, and corpus generation — including the statistical
// property that both sampling strategies draw from the same biased
// distribution, that p/q steer the walk as Sec. 2.1 describes, and a
// golden check that the on-the-fly walker's walks are bit-identical to
// the plain two-pass, binary-search-per-neighbour step.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/sliding_window.hpp"
#include "util/rng.hpp"
#include "walk/corpus.hpp"
#include "walk/node2vec_walker.hpp"

namespace seqge {
namespace {

TEST(Node2VecParams, Validation) {
  Node2VecParams p;
  EXPECT_NO_THROW(p.validate());
  p.p = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Node2VecParams{};
  p.window = 100;
  p.walk_length = 50;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Walker, WalkHasRequestedLength) {
  const Graph g = make_ring(20, 4);
  Node2VecParams params;
  params.walk_length = 15;
  Node2VecWalker<Graph> walker(g, params);
  Rng rng(1);
  const auto walk = walker.walk(rng, 3);
  EXPECT_EQ(walk.size(), 15u);
  EXPECT_EQ(walk[0], 3u);
}

TEST(Walker, ConsecutiveNodesAreConnected) {
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 200, .target_edges = 800, .num_classes = 4, .seed = 2});
  Node2VecParams params;
  params.walk_length = 40;
  Node2VecWalker<Graph> walker(data.graph, params);
  Rng rng(2);
  for (int t = 0; t < 20; ++t) {
    const auto start = static_cast<NodeId>(rng.bounded(200));
    const auto walk = walker.walk(rng, start);
    for (std::size_t i = 1; i < walk.size(); ++i) {
      ASSERT_TRUE(data.graph.has_edge(walk[i - 1], walk[i]))
          << walk[i - 1] << " -> " << walk[i];
    }
  }
}

TEST(Walker, IsolatedStartYieldsSingleton) {
  const std::vector<Edge> edges = {{0, 1}};
  const Graph g = Graph::from_edges(3, edges);  // node 2 isolated
  Node2VecWalker<Graph> walker(g, Node2VecParams{});
  Rng rng(3);
  const auto walk = walker.walk(rng, 2);
  EXPECT_EQ(walk.size(), 1u);
}

TEST(Walker, ReturnParameterBiasesBacktracking) {
  // Path graph 0-1-2. From (prev=0, cur=1) the only options are back to
  // 0 (alpha=1/p) or on to 2 (alpha=1/q, since d(0,2)=2). With p small,
  // returns dominate; with p large, they are rare.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);

  auto return_rate = [&](double p) {
    Node2VecParams params;
    params.p = p;
    params.q = 1.0;
    Node2VecWalker<Graph> walker(g, params);
    Rng rng(4);
    int back = 0;
    constexpr int kTrials = 20000;
    for (int i = 0; i < kTrials; ++i) {
      back += (walker.biased_step(rng, /*prev=*/0, /*cur=*/1) == 0);
    }
    return back / static_cast<double>(kTrials);
  };

  // Expected: (1/p) / (1/p + 1).
  EXPECT_NEAR(return_rate(0.25), 0.8, 0.02);
  EXPECT_NEAR(return_rate(4.0), 0.2, 0.02);
}

TEST(Walker, InOutParameterBiasesExploration) {
  // Square with a diagonal: 0-1, 1-2, 2-3, 3-0, 0-2.
  // From (prev=0, cur=1): candidates 0 (return), 2 (triangle, d=1).
  // From (prev=1, cur=2): candidates 1 (return), 0 (d=1 from 1), 3 (d=2).
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  const Graph g = Graph::from_edges(4, edges);

  auto explore_rate = [&](double q) {
    Node2VecParams params;
    params.p = 1.0;
    params.q = q;
    Node2VecWalker<Graph> walker(g, params);
    Rng rng(5);
    int to3 = 0;
    constexpr int kTrials = 20000;
    for (int i = 0; i < kTrials; ++i) {
      to3 += (walker.biased_step(rng, /*prev=*/1, /*cur=*/2) == 3);
    }
    return to3 / static_cast<double>(kTrials);
  };

  // Expected: (1/q) / (1 + 1 + 1/q).
  EXPECT_NEAR(explore_rate(0.5), 2.0 / 4.0, 0.02);
  EXPECT_NEAR(explore_rate(2.0), 0.5 / 2.5, 0.02);
}

TEST(Walker, RespectsEdgeWeights) {
  // First step from node 0: neighbors 1 (weight 9) and 2 (weight 1).
  const std::vector<Edge> edges = {{0, 1, 9.0f}, {0, 2, 1.0f}};
  const Graph g = Graph::from_edges(3, edges);
  Node2VecParams params;
  params.walk_length = 2;
  params.window = 2;
  Node2VecWalker<Graph> walker(g, params);
  Rng rng(6);
  int heavy = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) heavy += (walker.walk(rng, 0)[1] == 1);
  EXPECT_NEAR(heavy / static_cast<double>(kTrials), 0.9, 0.01);
}

TEST(Walker, WorksOnDynamicGraph) {
  DynamicGraph dg(5);
  dg.add_edge(0, 1);
  dg.add_edge(1, 2);
  Node2VecParams params;
  params.walk_length = 10;
  Node2VecWalker<DynamicGraph> walker(dg, params);
  Rng rng(7);
  auto walk = walker.walk(rng, 0);
  EXPECT_EQ(walk.size(), 10u);
  // Adding an edge immediately affects subsequent walks.
  dg.add_edge(2, 3);
  bool reached3 = false;
  for (int i = 0; i < 50 && !reached3; ++i) {
    for (NodeId v : walker.walk(rng, 0)) reached3 |= (v == 3);
  }
  EXPECT_TRUE(reached3);
}

// --- golden: bit-identical to the two-pass, binary-search step ------------

/// The reference second-order step: both passes recompute the bias of
/// every neighbour, testing (prev, x) in E with has_edge's binary
/// search. Node2VecWalker must draw exactly the same node from the
/// same RNG state.
template <typename GraphT>
NodeId reference_step(const GraphT& g, const Node2VecParams& params,
                      Rng& rng, NodeId prev, NodeId cur) {
  const double inv_p = 1.0 / params.p;
  const double inv_q = 1.0 / params.q;
  const auto bias = [&](NodeId x) {
    if (x == prev) return inv_p;
    if (g.has_edge(prev, x)) return 1.0;
    return inv_q;
  };
  const auto nbrs = g.neighbors(cur);
  const auto ws = g.weights(cur);
  double total = 0.0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    total += ws[i] * bias(nbrs[i]);
  }
  double r = rng.uniform() * total;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    r -= ws[i] * bias(nbrs[i]);
    if (r <= 0.0) return nbrs[i];
  }
  return nbrs.back();
}

template <typename GraphT>
std::vector<NodeId> reference_walk(const GraphT& g,
                                   const Node2VecParams& params, Rng& rng,
                                   NodeId start) {
  std::vector<NodeId> out = {start};
  if (g.degree(start) == 0) return out;
  // First step: by edge weight alone.
  const auto nbrs = g.neighbors(start);
  const auto ws = g.weights(start);
  double total = 0.0;
  for (float w : ws) total += w;
  double r = rng.uniform() * total;
  std::size_t i = 0;
  for (; i + 1 < nbrs.size(); ++i) {
    r -= ws[i];
    if (r <= 0.0) break;
  }
  out.push_back(nbrs[i]);
  while (out.size() < params.walk_length && g.degree(out.back()) != 0) {
    out.push_back(reference_step(g, params, rng, out[out.size() - 2],
                                 out.back()));
  }
  return out;
}

/// For every (p, q) in {0.5, 1, 4} x {0.5, 1, 2}: walks from every node
/// (`rounds` each) equal the reference's, and both consume the RNG
/// identically.
template <typename GraphT>
void expect_golden_walks(const GraphT& g, std::size_t rounds,
                         const char* what) {
  for (const double p : {0.5, 1.0, 4.0}) {
    for (const double q : {0.5, 1.0, 2.0}) {
      Node2VecParams params;
      params.p = p;
      params.q = q;
      params.walk_length = 40;
      const Node2VecWalker<GraphT> walker(g, params);
      Rng a(1000 + static_cast<std::uint64_t>(p * 10 + q));
      Rng b = a;
      std::vector<NodeId> walk;
      for (std::size_t round = 0; round < rounds; ++round) {
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          walker.walk_into(a, u, walk);
          ASSERT_EQ(walk, reference_walk(g, params, b, u))
              << what << " p=" << p << " q=" << q << " start=" << u;
        }
      }
      EXPECT_EQ(a.next(), b.next()) << what;
    }
  }
}

std::vector<Edge> weighted_edges(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) {
        edges.push_back({u, v, static_cast<float>(rng.uniform(0.1, 5.0))});
      }
    }
  }
  return edges;
}

TEST(WalkerGolden, UnweightedGraph) {
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 150, .target_edges = 900, .num_classes = 4, .seed = 31});
  expect_golden_walks(data.graph, 2, "unweighted");
}

TEST(WalkerGolden, WeightedGraph) {
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 150, .target_edges = 900, .num_classes = 4, .seed = 32});
  const auto edges = weighted_edges(data.graph, 33);
  expect_golden_walks(Graph::from_edges(150, edges), 2, "weighted");
}

TEST(WalkerGolden, DynamicGraphAfterInsertsAndRemovals) {
  const auto edges =
      weighted_edges(make_barabasi_albert(120, 4, 34), /*seed=*/35);
  DynamicGraph dg(120);
  for (const Edge& e : edges) dg.add_edge(e.src, e.dst, e.weight);
  for (std::size_t i = 0; i < edges.size(); i += 3) {
    dg.remove_edge(edges[i].src, edges[i].dst);
  }
  expect_golden_walks(dg, 2, "dynamic");
}

TEST(WalkerGolden, SlidingWindowGraphAfterInsertsRemovalsAndExpiry) {
  const auto edges =
      weighted_edges(make_barabasi_albert(120, 5, 36), /*seed=*/37);
  SlidingWindowGraph::Options opts;
  opts.max_age = 400;
  SlidingWindowGraph wg(120, opts);
  std::vector<ExpiredEdge> expired;
  std::uint64_t now = 0;
  for (const Edge& e : edges) {
    wg.add_edge(e.src, e.dst, e.weight, ++now);
    if (now % 7 == 0) wg.remove_edge(e.src, e.dst);
  }
  wg.expire(now, expired);
  ASSERT_FALSE(expired.empty());
  expect_golden_walks(wg, 2, "window");
}

TEST(WalkerGolden, HubAndLeavesBothDirections) {
  // Node 0 is a hub joined to all 400 leaves; the leaves form a ring
  // with chords, so leaf steps see triangles through the hub. Leaf ->
  // hub steps have deg(cur) >> deg(prev), hub -> leaf the reverse.
  constexpr NodeId kLeaves = 400;
  std::vector<Edge> edges;
  for (NodeId v = 1; v <= kLeaves; ++v) {
    edges.push_back({0, v, 1.0f + static_cast<float>(v % 5)});
    edges.push_back({v, v % kLeaves + 1, 1.0f});
    if (v % 4 == 0) edges.push_back({v, (v + 37) % kLeaves + 1, 2.0f});
  }
  const Graph g = Graph::from_edges(kLeaves + 1, edges);
  expect_golden_walks(g, 1, "hub");

  for (const double q : {0.5, 2.0}) {
    Node2VecParams params;
    params.q = q;
    const Node2VecWalker<Graph> walker(g, params);
    for (NodeId v = 1; v <= kLeaves; ++v) {
      for (const auto& [prev, cur] :
           {std::pair{NodeId{0}, v}, std::pair{v, NodeId{0}}}) {
        Rng a(v);
        Rng b(v);
        for (int draw = 0; draw < 16; ++draw) {
          ASSERT_EQ(walker.biased_step(a, prev, cur),
                    reference_step(g, params, b, prev, cur))
              << "q=" << q << " prev=" << prev << " cur=" << cur;
        }
      }
    }
  }
}

TEST(WalkerGolden, DeadEndStopsTheWalk) {
  // Directed arcs: 0 -> 1 -> 2 -> 3 with 1 -> 3 and 2 -> 0; node 3 has
  // no out-arcs, so walks stop there, and node 4 is isolated.
  const std::vector<Edge> arcs = {{0, 1}, {1, 2}, {2, 3}, {1, 3}, {2, 0}};
  const Graph g = Graph::from_edges(5, arcs, /*undirected=*/false);
  expect_golden_walks(g, 20, "dead end");
  Rng rng(38);
  const auto walk = Node2VecWalker<Graph>(g, Node2VecParams{}).walk(rng, 4);
  EXPECT_EQ(walk, std::vector<NodeId>{4});
}

TEST(RejectionWalker, MatchesOnTheFlyDistribution) {
  // Both strategies must sample the same second-order distribution.
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 60, .target_edges = 240, .num_classes = 3, .seed = 8});
  const Graph& g = data.graph;
  Node2VecParams params;
  params.p = 0.5;
  params.q = 2.0;
  Node2VecWalker<Graph> otf(g, params);
  RejectionNode2VecWalker rej(g, params);

  // Pick a (prev, cur) pair with decent degree.
  NodeId cur = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.degree(u) >= 4) {
      cur = u;
      break;
    }
  }
  const NodeId prev = g.neighbors(cur)[0];

  constexpr int kTrials = 60000;
  std::map<NodeId, int> otf_counts, rej_counts;
  Rng r1(9), r2(10);
  for (int i = 0; i < kTrials; ++i) {
    ++otf_counts[otf.biased_step(r1, prev, cur)];
    ++rej_counts[rej.biased_step(r2, prev, cur)];
  }
  for (NodeId nbr : g.neighbors(cur)) {
    const double a = otf_counts[nbr] / static_cast<double>(kTrials);
    const double b = rej_counts[nbr] / static_cast<double>(kTrials);
    EXPECT_NEAR(a, b, 0.015) << "neighbor " << nbr;
  }
}

TEST(Windowing, ContextCountMatchesPaper) {
  // l = 80, w = 8 -> 73 contexts (Sec. 4.2).
  EXPECT_EQ(num_contexts(80, 8), 73u);
  EXPECT_EQ(num_contexts(8, 8), 1u);
  EXPECT_EQ(num_contexts(7, 8), 0u);
}

TEST(Windowing, CentersAndPositives) {
  const std::vector<NodeId> walk = {10, 11, 12, 13, 14};
  std::vector<NodeId> centers;
  std::vector<std::size_t> positive_counts;
  for_each_context(std::span<const NodeId>(walk), 3,
                   [&](const WalkContext& ctx) {
                     centers.push_back(ctx.center);
                     positive_counts.push_back(ctx.positives.size());
                   });
  ASSERT_EQ(centers.size(), 3u);
  EXPECT_EQ(centers[0], 10u);
  EXPECT_EQ(centers[2], 12u);
  for (auto c : positive_counts) EXPECT_EQ(c, 2u);
}

TEST(Windowing, FirstContextPositivesFollowCenter) {
  const std::vector<NodeId> walk = {1, 2, 3, 4};
  for_each_context(std::span<const NodeId>(walk), 4,
                   [&](const WalkContext& ctx) {
                     EXPECT_EQ(ctx.center, 1u);
                     ASSERT_EQ(ctx.positives.size(), 3u);
                     EXPECT_EQ(ctx.positives[0], 2u);
                     EXPECT_EQ(ctx.positives[2], 4u);
                   });
}

TEST(Corpus, CountsAndFrequencies) {
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 100, .target_edges = 400, .num_classes = 4, .seed = 11});
  Node2VecParams params;
  params.walk_length = 20;
  Rng rng(12);
  const WalkCorpus corpus = generate_corpus(data.graph, params, 3, rng);
  EXPECT_EQ(corpus.walks.size(), 300u);

  std::uint64_t total_visits = 0;
  for (const auto& w : corpus.walks) total_visits += w.size();
  std::uint64_t freq_sum = 0;
  for (auto f : corpus.frequency) freq_sum += f;
  EXPECT_EQ(freq_sum, total_visits);
  EXPECT_EQ(corpus.total_contexts(8), 300u * num_contexts(20, 8));
}

TEST(Corpus, DeterministicVariantIsThreadCountInvariant) {
  // The per-walk-seeded corpus must be identical regardless of OpenMP
  // scheduling — same walks in the same slots for the same seed.
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 80, .target_edges = 320, .num_classes = 4, .seed = 21});
  Node2VecParams params;
  params.walk_length = 16;
  const WalkCorpus a =
      generate_corpus_deterministic(data.graph, params, 3, 42);
  const WalkCorpus b =
      generate_corpus_deterministic(data.graph, params, 3, 42);
  ASSERT_EQ(a.walks.size(), b.walks.size());
  for (std::size_t i = 0; i < a.walks.size(); ++i) {
    EXPECT_EQ(a.walks[i], b.walks[i]) << "walk " << i;
  }
  EXPECT_EQ(a.frequency, b.frequency);

  // Different seeds give different corpora.
  const WalkCorpus c =
      generate_corpus_deterministic(data.graph, params, 3, 43);
  bool differs = false;
  for (std::size_t i = 0; i < a.walks.size() && !differs; ++i) {
    differs = (a.walks[i] != c.walks[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(Corpus, DeterministicVariantHasCorrectShape) {
  const Graph g = make_ring(25, 4);
  Node2VecParams params;
  params.walk_length = 12;
  const WalkCorpus corpus = generate_corpus_deterministic(g, params, 4, 7);
  EXPECT_EQ(corpus.walks.size(), 100u);
  std::uint64_t visits = 0;
  for (const auto& w : corpus.walks) {
    EXPECT_EQ(w.size(), 12u);
    visits += w.size();
  }
  std::uint64_t freq = 0;
  for (auto f : corpus.frequency) freq += f;
  EXPECT_EQ(freq, visits);
  // Walk w starts at node w % n.
  EXPECT_EQ(corpus.walks[0][0], 0u);
  EXPECT_EQ(corpus.walks[26][0], 1u);
}

TEST(Corpus, EveryNodeStartsWalks) {
  const Graph g = make_ring(30, 2);
  Node2VecParams params;
  params.walk_length = 5;
  params.window = 2;
  Rng rng(13);
  const WalkCorpus corpus = generate_corpus(g, params, 2, rng);
  std::vector<int> starts(30, 0);
  for (const auto& w : corpus.walks) ++starts[w[0]];
  for (int s : starts) EXPECT_EQ(s, 2);
}

}  // namespace
}  // namespace seqge
