// Tests for the batch ("all") and dynamic ("seq") training
// orchestrators.

#include <gtest/gtest.h>

#include <limits>

#include "embedding/model.hpp"
#include "embedding/trainer.hpp"
#include "graph/components.hpp"
#include "walk/corpus.hpp"
#include "graph/generators.hpp"
#include "graph/sliding_window.hpp"
#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace seqge {
namespace {

LabeledGraph small_graph() {
  return generate_dcsbm(
      {.num_nodes = 120, .target_edges = 600, .num_classes = 3, .seed = 31});
}

TrainConfig small_config() {
  TrainConfig cfg;
  cfg.dims = 8;
  cfg.walk.walk_length = 20;
  cfg.walk.window = 5;
  cfg.walks_per_node = 2;
  cfg.negative_samples = 4;
  return cfg;
}

TEST(TrainAll, StatsAccounting) {
  const LabeledGraph data = small_graph();
  const TrainConfig cfg = small_config();
  Rng rng(1);
  auto model = make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg, rng);
  const TrainStats stats = train_all(*model, data.graph, cfg, rng);

  EXPECT_EQ(stats.num_walks, data.graph.num_nodes() * cfg.walks_per_node);
  // Every walk reaches full length (all nodes have degree >= 1), so the
  // context count is exact.
  EXPECT_EQ(stats.num_contexts,
            stats.num_walks *
                num_contexts(cfg.walk.walk_length, cfg.walk.window));
  EXPECT_GT(stats.train_seconds, 0.0);
  EXPECT_GT(stats.walk_seconds, 0.0);
}

TEST(TrainAll, ChangesTheEmbedding) {
  const LabeledGraph data = small_graph();
  const TrainConfig cfg = small_config();
  Rng rng(2);
  auto model = make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg, rng);
  const MatrixF before = model->extract_embedding();
  train_all(*model, data.graph, cfg, rng);
  const MatrixF after = model->extract_embedding();
  EXPECT_GT(max_abs_diff(before, after), 1e-4);
}

TEST(TrainAll, DeterministicForSameSeed) {
  const LabeledGraph data = small_graph();
  const TrainConfig cfg = small_config();
  MatrixF emb[2];
  for (int t = 0; t < 2; ++t) {
    Rng rng(cfg.seed);
    auto model =
        make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg, rng);
    train_all(*model, data.graph, cfg, rng);
    emb[t] = model->extract_embedding();
  }
  EXPECT_DOUBLE_EQ(max_abs_diff(emb[0], emb[1]), 0.0);
}

TEST(TrainAll, MultiEpochTrainsMore) {
  const LabeledGraph data = small_graph();
  TrainConfig cfg = small_config();
  cfg.epochs = 3;
  Rng rng(3);
  auto model =
      make_model(ModelKind::kOriginalSGD, data.graph.num_nodes(), cfg, rng);
  const TrainStats stats = train_all(*model, data.graph, cfg, rng);
  EXPECT_EQ(stats.num_walks,
            3 * data.graph.num_nodes() * cfg.walks_per_node);
}

TEST(TrainSequential, InsertsEveryRemovedEdge) {
  const LabeledGraph data = small_graph();
  SequentialConfig cfg;
  cfg.train = small_config();
  Rng rng(4);
  auto model =
      make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg.train, rng);
  const SequentialResult result =
      train_sequential(*model, data.graph, cfg, rng);

  const std::size_t cc = count_components(data.graph);
  EXPECT_EQ(result.forest_edges, data.graph.num_nodes() - cc);
  EXPECT_EQ(result.forest_edges + result.removed_edges,
            data.graph.num_edges());
  EXPECT_EQ(result.insertions, result.removed_edges);
  // Initial corpus walks + 2 walks per insertion.
  EXPECT_EQ(result.stats.num_walks,
            data.graph.num_nodes() * cfg.train.walks_per_node +
                2 * result.insertions);
}

TEST(TrainSequential, MaxInsertionsCap) {
  const LabeledGraph data = small_graph();
  SequentialConfig cfg;
  cfg.train = small_config();
  cfg.max_insertions = 10;
  Rng rng(5);
  auto model =
      make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg.train, rng);
  const SequentialResult result =
      train_sequential(*model, data.graph, cfg, rng);
  EXPECT_EQ(result.insertions, 10u);
}

TEST(TrainSequential, InitialWalksOverride) {
  const LabeledGraph data = small_graph();
  SequentialConfig cfg;
  cfg.train = small_config();
  cfg.initial_walks_per_node = 1;
  cfg.max_insertions = 0;
  Rng rng(6);
  auto model =
      make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg.train, rng);
  const SequentialResult result =
      train_sequential(*model, data.graph, cfg, rng);
  EXPECT_EQ(result.stats.num_walks, data.graph.num_nodes());
}

TEST(TrainSequential, WorksForSgdBaselineToo) {
  const LabeledGraph data = small_graph();
  SequentialConfig cfg;
  cfg.train = small_config();
  cfg.max_insertions = 20;
  Rng rng(7);
  auto model = make_model(ModelKind::kOriginalSGD, data.graph.num_nodes(),
                          cfg.train, rng);
  const SequentialResult result =
      train_sequential(*model, data.graph, cfg, rng);
  EXPECT_EQ(result.insertions, 20u);
  EXPECT_GT(result.stats.num_contexts, 0u);
}

/// A diverged backend: every walk's loss is NaN.
class NanLossModel final : public EmbeddingModel {
 public:
  explicit NanLossModel(std::size_t n) : n_(n) {}
  double train_walk(std::span<const NodeId>, std::size_t,
                    const NegativeSampler&, std::size_t, NegativeMode,
                    Rng&) override {
    return std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] MatrixF extract_embedding() const override {
    return MatrixF(n_, dims());
  }
  [[nodiscard]] std::size_t dims() const override { return 4; }
  [[nodiscard]] std::size_t num_nodes() const override { return n_; }
  [[nodiscard]] std::size_t model_bytes() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "nan-loss"; }

 private:
  std::size_t n_;
};

std::uint64_t nonfinite_batches() {
  const obs::Counter* c = obs::Registry::global().find_counter(
      "seqge_train_nonfinite_batches_total");
  return c == nullptr ? 0 : c->value();
}

TEST(NonFiniteSentinel, CountsEveryNanBatchOfBothLoops) {
  const obs::EnabledGuard on(true);
  const LabeledGraph data = small_graph();
  const TrainConfig cfg = small_config();
  NanLossModel model(data.graph.num_nodes());
  Rng rng(9);
  const std::uint64_t before = nonfinite_batches();
  const TrainStats st = train_all(model, data.graph, cfg, rng);
  ASSERT_GT(st.num_batches, 0u);
  EXPECT_EQ(nonfinite_batches() - before, st.num_batches);

  SlidingWindowGraph window(8);
  StreamConfig scfg;
  scfg.train = cfg;
  StreamTrainer stream(model, window, scfg, rng);
  const std::uint64_t before_stream = nonfinite_batches();
  for (NodeId u = 0; u + 1 < 8; ++u) stream.insert(u, u + 1);
  EXPECT_EQ(nonfinite_batches() - before_stream,
            stream.train_stats().num_batches);
  EXPECT_GT(stream.train_stats().num_batches, 0u);
}

TEST(NonFiniteSentinel, FiniteTrainingLeavesItAlone) {
  const obs::EnabledGuard on(true);
  const LabeledGraph data = small_graph();
  const TrainConfig cfg = small_config();
  Rng rng(10);
  auto model = make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg, rng);
  const std::uint64_t before = nonfinite_batches();
  (void)train_all(*model, data.graph, cfg, rng);
  EXPECT_EQ(nonfinite_batches(), before);
}

}  // namespace
}  // namespace seqge
