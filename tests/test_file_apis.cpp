// Tests for the path-based persistence APIs (model checkpoints on the
// filesystem) and the FPGA accelerator driving the full sequential
// scenario — the deployment loop an IoT device would actually run:
// restore checkpoint -> stream edges -> save checkpoint.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "embedding/checkpoint.hpp"
#include "embedding/oselm_skipgram.hpp"
#include "embedding/trainer.hpp"
#include "eval/node_classification.hpp"
#include "fpga/accelerator.hpp"
#include "graph/generators.hpp"
#include "linalg/kernels.hpp"

namespace seqge {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("seqge_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

TEST(FileApis, CheckpointSaveLoadThroughPath) {
  TempDir dir;
  Rng rng(2);
  OselmSkipGram::Options opts;
  opts.dims = 8;
  OselmSkipGram model(15, opts, rng);
  const std::string path = dir.file("model.ckpt");
  save_model(path, model);

  Rng rng2(3);
  OselmSkipGram restored(15, opts, rng2);
  load_model(path, restored);
  EXPECT_DOUBLE_EQ(
      max_abs_diff(model.beta_transposed(), restored.beta_transposed()),
      0.0);
}

TEST(FileApis, CheckpointMissingFileThrows) {
  Rng rng(4);
  OselmSkipGram::Options opts;
  opts.dims = 4;
  OselmSkipGram model(5, opts, rng);
  EXPECT_THROW(load_model("/nonexistent/model.ckpt", model),
               std::runtime_error);
  EXPECT_THROW(save_model("/nonexistent/dir/model.ckpt", model),
               std::runtime_error);
}

TEST(FpgaSequential, AcceleratorRunsSeqScenario) {
  // The accelerator as the training engine of the full "seq" loop —
  // exactly the deployment mode the paper targets.
  const LabeledGraph data = generate_dcsbm({.num_nodes = 100,
                                            .target_edges = 500,
                                            .num_classes = 3,
                                            .assortativity = 12.0,
                                            .seed = 5});
  fpga::AcceleratorConfig acfg;
  acfg.dims = 8;
  acfg.parallelism = 8;
  acfg.walk_length = 20;
  acfg.window = 5;
  acfg.negative_samples = 4;

  Rng rng(6);
  fpga::Accelerator accel(data.graph.num_nodes(), acfg, rng);

  SequentialConfig scfg;
  scfg.train.dims = acfg.dims;
  scfg.train.walk.walk_length = acfg.walk_length;
  scfg.train.walk.window = acfg.window;
  scfg.train.negative_samples = acfg.negative_samples;
  scfg.train.walks_per_node = 2;
  scfg.max_insertions = 50;

  const SequentialResult result =
      train_sequential(accel, data.graph, scfg, rng);
  EXPECT_EQ(result.insertions, 50u);
  EXPECT_EQ(accel.walks_processed(), result.stats.num_walks);
  EXPECT_GT(accel.simulated_seconds(), 0.0);

  const double f1 =
      mean_micro_f1(accel.extract_embedding(), data.labels,
                    data.num_classes, ClassificationConfig{}, 2, 7);
  EXPECT_GT(f1, 0.4) << "seq-trained fixed-point embedding must be usable";
}

TEST(FpgaSequential, ShortWalksCostLessSimTime) {
  // Walks in the seq scenario can be shorter than l when they hit
  // degree-0 nodes... on the forest they cannot, but the accelerator's
  // timing must still scale with actual contexts; verify with a
  // hand-fed short walk.
  fpga::AcceleratorConfig acfg;
  acfg.dims = 8;
  acfg.parallelism = 8;
  acfg.walk_length = 20;
  acfg.window = 5;
  acfg.negative_samples = 4;
  Rng rng(8);
  fpga::Accelerator accel(40, acfg, rng);
  const std::vector<std::uint64_t> counts(40, 1);
  NegativeSampler sampler(counts);

  std::vector<NodeId> full_walk(20);
  for (std::size_t i = 0; i < full_walk.size(); ++i) {
    full_walk[i] = static_cast<NodeId>(i);
  }
  accel.train_walk(full_walk, acfg.window, sampler, 4,
                   NegativeMode::kPerWalk, rng);
  const double t_full = accel.last_walk_timing().total_us;

  std::vector<NodeId> short_walk(full_walk.begin(), full_walk.begin() + 8);
  accel.train_walk(short_walk, acfg.window, sampler, 4,
                   NegativeMode::kPerWalk, rng);
  const double t_short = accel.last_walk_timing().total_us;
  EXPECT_LT(t_short, t_full);
}

}  // namespace
}  // namespace seqge
