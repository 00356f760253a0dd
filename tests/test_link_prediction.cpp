// Tests for the link-prediction evaluation substrate: AUC correctness
// against hand-computed rankings, non-edge sampling invariants, and an
// end-to-end sanity check that trained embeddings rank held-out edges
// above non-edges.

#include <gtest/gtest.h>

#include "embedding/model.hpp"
#include "embedding/trainer.hpp"
#include "eval/link_prediction.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace seqge {
namespace {

TEST(RocAuc, PerfectSeparation) {
  const std::vector<double> pos = {0.9, 0.8, 0.7};
  const std::vector<double> neg = {0.3, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(roc_auc(pos, neg), 1.0);
  EXPECT_DOUBLE_EQ(roc_auc(neg, pos), 0.0);
}

TEST(RocAuc, RandomScoresGiveHalf) {
  Rng rng(1);
  std::vector<double> pos(2000), neg(2000);
  for (auto& x : pos) x = rng.uniform();
  for (auto& x : neg) x = rng.uniform();
  EXPECT_NEAR(roc_auc(pos, neg), 0.5, 0.03);
}

TEST(RocAuc, TiesCountHalf) {
  const std::vector<double> pos = {0.5};
  const std::vector<double> neg = {0.5};
  EXPECT_DOUBLE_EQ(roc_auc(pos, neg), 0.5);
}

TEST(RocAuc, HandComputedMixedCase) {
  // pos {3, 1}, neg {2, 0}: pairs (3>2),(3>0),(1<2),(1>0) -> 3/4.
  const std::vector<double> pos = {3.0, 1.0};
  const std::vector<double> neg = {2.0, 0.0};
  EXPECT_DOUBLE_EQ(roc_auc(pos, neg), 0.75);
}

TEST(RocAuc, EmptyThrows) {
  const std::vector<double> some = {1.0};
  EXPECT_THROW(roc_auc({}, some), std::invalid_argument);
  EXPECT_THROW(roc_auc(some, {}), std::invalid_argument);
}

TEST(SampleNonEdges, InvariantsHold) {
  const Graph g = make_ring(30, 4);
  Rng rng(2);
  const auto non_edges = sample_non_edges(g, 100, rng);
  EXPECT_EQ(non_edges.size(), 100u);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : non_edges) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_FALSE(g.has_edge(e.src, e.dst));
    EXPECT_TRUE(seen.emplace(e.src, e.dst).second) << "duplicate non-edge";
  }
}

TEST(SampleNonEdges, TooManyRequestedThrows) {
  const Graph g = make_ring(4, 2);  // 4 nodes, 4 edges, 2 non-edges
  Rng rng(3);
  EXPECT_THROW(sample_non_edges(g, 5, rng), std::invalid_argument);
}

TEST(ScoreEdge, CosineAgreesWithHadamard) {
  Rng rng(4);
  MatrixF emb(4, 8);
  emb.fill_uniform(rng, -1.0, 1.0);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_NEAR(score_edge(emb, u, v, EdgeScore::kCosine),
                  score_edge(emb, u, v, EdgeScore::kHadamardL2), 1e-6);
    }
  }
}

TEST(LinkPrediction, TrainedEmbeddingBeatsChance) {
  const LabeledGraph data = generate_dcsbm({.num_nodes = 300,
                                            .target_edges = 1800,
                                            .num_classes = 4,
                                            .assortativity = 12.0,
                                            .seed = 5});
  // Hold out 15% of edges.
  Rng rng(6);
  std::vector<Edge> edges = data.graph.edge_list();
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.bounded(i)]);
  }
  const std::size_t n_held = edges.size() * 15 / 100;
  std::vector<Edge> held(edges.begin(),
                         edges.begin() + static_cast<std::ptrdiff_t>(n_held));
  const Graph observed = Graph::from_edges(
      data.graph.num_nodes(),
      std::span<const Edge>(edges).subspan(n_held));

  TrainConfig cfg;
  cfg.dims = 16;
  cfg.walk.walk_length = 30;
  cfg.walks_per_node = 5;
  auto model =
      make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg, rng);
  train_all(*model, observed, cfg, rng);

  const double auc = link_prediction_auc(
      model->extract_embedding(), observed, held, EdgeScore::kCosine, rng);
  EXPECT_GT(auc, 0.7) << "held-out edges must rank above non-edges";
}

}  // namespace
}  // namespace seqge
