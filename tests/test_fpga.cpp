// Tests for the FPGA substrate: the bit-accurate HLS core against the
// float dataflow reference, the DMA/performance models against the
// paper's measured latencies, the resource model against Table 6, and
// the host driver (Accelerator).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "embedding/oselm_dataflow.hpp"
#include "embedding/trainer.hpp"
#include "eval/node_classification.hpp"
#include "fpga/accelerator.hpp"
#include "fpga/dma_model.hpp"
#include "fpga/energy_model.hpp"
#include "fpga/hls_core.hpp"
#include "fpga/perf_model.hpp"
#include "fpga/resource_model.hpp"
#include "graph/generators.hpp"
#include "linalg/kernels.hpp"
#include "op_counts.hpp"
#include "perfmodel/cpu_model.hpp"

namespace seqge::fpga {
namespace {

AcceleratorConfig tiny_config() {
  AcceleratorConfig cfg;
  cfg.dims = 8;
  cfg.parallelism = 8;
  cfg.walk_length = 12;
  cfg.window = 4;
  cfg.negative_samples = 3;
  return cfg;
}

TEST(AcceleratorConfig, DefaultParallelismMapping) {
  EXPECT_EQ(AcceleratorConfig::default_parallelism(32), 32u);
  EXPECT_EQ(AcceleratorConfig::default_parallelism(64), 48u);
  EXPECT_EQ(AcceleratorConfig::default_parallelism(96), 64u);
  const auto cfg = AcceleratorConfig::for_dims(64);
  EXPECT_EQ(cfg.parallelism, 48u);
}

TEST(AcceleratorConfig, ContextArithmeticMatchesPaper) {
  AcceleratorConfig cfg;  // l=80 w=8 ns=10
  EXPECT_EQ(cfg.contexts_per_walk(), 73u);
  EXPECT_EQ(cfg.samples_per_context(), 7u * 11u);
  EXPECT_EQ(cfg.max_slots(), 90u);
}

TEST(HlsCore, MatchesFloatDataflowReference) {
  // Same walk, same negatives, same initial weights: the fixed-point
  // core must track the float Algorithm-2 reference within quantization
  // tolerance.
  const AcceleratorConfig cfg = tiny_config();
  Rng rng(1);
  OselmSkipGramDataflow::Options opts;
  opts.dims = cfg.dims;
  opts.mu = cfg.mu;
  opts.p0 = cfg.p0;
  OselmSkipGramDataflow ref(16, opts, rng);

  HlsCore core(cfg);
  // Mirror the reference's beta into core slots 0..15 (one per node).
  // 16 nodes <= max_slots (12 + 3 = 15)? No: use 12 nodes.
  const std::size_t n_nodes = cfg.max_slots();
  Rng rng2(1);
  OselmSkipGramDataflow ref2(n_nodes, opts, rng2);
  std::vector<CoreFixed> row(cfg.dims);
  std::vector<CoreFixed> p(cfg.dims * cfg.dims);
  for (std::size_t i = 0; i < cfg.dims; ++i) {
    p[i * cfg.dims + i] = CoreFixed::from_double(cfg.p0);
  }
  core.load_p(p);
  for (std::size_t v = 0; v < n_nodes; ++v) {
    auto src = ref2.beta_transposed().row(v);
    for (std::size_t d = 0; d < cfg.dims; ++d) {
      row[d] = CoreFixed::from_double(src[d]);
    }
    core.load_beta_slot(v, row);
  }

  // A few walks over the same node ids (= slot ids here).
  Rng wrng(7);
  for (int iter = 0; iter < 5; ++iter) {
    std::vector<NodeId> walk(cfg.walk_length);
    for (auto& v : walk) {
      v = static_cast<NodeId>(wrng.bounded(n_nodes - 3));
    }
    const std::vector<NodeId> negs = {
        static_cast<NodeId>(n_nodes - 3), static_cast<NodeId>(n_nodes - 2),
        static_cast<NodeId>(n_nodes - 1)};
    ref2.train_walk(walk, cfg.window, negs);
    std::vector<std::uint32_t> walk_slots(walk.begin(), walk.end());
    std::vector<std::uint32_t> neg_slots(negs.begin(), negs.end());
    core.run_walk(walk_slots, neg_slots);
  }

  double max_diff = 0.0;
  for (std::size_t v = 0; v < n_nodes; ++v) {
    auto fref = ref2.beta_transposed().row(v);
    auto fcore = core.beta_slot(v);
    for (std::size_t d = 0; d < cfg.dims; ++d) {
      max_diff = std::max(
          max_diff, std::abs(fcore[d].to_double() -
                             static_cast<double>(fref[d])));
    }
  }
  EXPECT_LT(max_diff, 1e-3)
      << "fixed-point drift vs float reference too large";
}

TEST(HlsCore, MacCountMatchesOpCountFormula) {
  const AcceleratorConfig cfg = tiny_config();
  HlsCore core(cfg);
  std::vector<std::uint32_t> walk(cfg.walk_length);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    walk[i] = static_cast<std::uint32_t>(i % 4);
  }
  const std::vector<std::uint32_t> negs = {5, 6, 7};
  core.run_walk(walk, negs);

  perfmodel::WalkShape shape{cfg.dims, cfg.window, cfg.negative_samples,
                             cfg.walk_length};
  // The functional core executes H (N), two matvecs (2N^2), hph (N),
  // dP+piht (N^2+N), and per-sample 2N. The formula counts 3N^2+2NS+3N
  // per context plus the commit N^2. Audit within the small bookkeeping
  // delta from skipped negatives (negatives equal to the positive).
  const auto expected = perfmodel::oselm_dataflow_walk_ops(shape);
  const double rel_err =
      std::abs(static_cast<double>(core.mac_count()) -
               static_cast<double>(expected.macs)) /
      static_cast<double>(expected.macs);
  EXPECT_LT(rel_err, 0.05) << "core=" << core.mac_count()
                           << " formula=" << expected.macs;
  EXPECT_EQ(core.contexts_processed(),
            cfg.walk_length - cfg.window + 1);
}

TEST(HlsCore, RejectsBadSlotAccess) {
  const AcceleratorConfig cfg = tiny_config();
  HlsCore core(cfg);
  std::vector<CoreFixed> row(cfg.dims);
  EXPECT_THROW(core.load_beta_slot(cfg.max_slots(), row),
               std::invalid_argument);
  std::vector<CoreFixed> bad_p(3);
  EXPECT_THROW(core.load_p(bad_p), std::invalid_argument);
  EXPECT_THROW(core.beta_slot(cfg.max_slots()), std::out_of_range);
}

TEST(DmaModel, LatencyPlusBandwidth) {
  DmaModel dma(2000.0, 1.0);
  const DmaTransfer t = dma.transfer(20000);
  EXPECT_EQ(t.bytes, 20000u);
  EXPECT_DOUBLE_EQ(t.microseconds, 1.0 + 10.0);
}

TEST(PerfModel, ReproducesPaperTable3FpgaRow) {
  // Paper: 0.777 / 0.878 / 0.985 ms per walk at dims 32 / 64 / 96.
  const double expected[] = {0.777, 0.878, 0.985};
  const std::size_t dims[] = {32, 64, 96};
  for (int i = 0; i < 3; ++i) {
    const PerfModel pm(AcceleratorConfig::for_dims(dims[i]));
    const WalkTiming t = pm.walk_timing();
    EXPECT_NEAR(t.total_us / 1000.0, expected[i], expected[i] * 0.02)
        << "dims " << dims[i];
  }
}

TEST(PerfModel, MonotonicInDims) {
  double prev = 0.0;
  for (std::size_t dims : {16, 32, 48, 64, 80, 96, 128}) {
    AcceleratorConfig cfg = AcceleratorConfig::for_dims(dims);
    const PerfModel pm(cfg);
    const double t = pm.walk_timing().total_us;
    EXPECT_GT(t, prev) << "dims " << dims;
    prev = t;
  }
}

TEST(PerfModel, MoreLanesAreFaster) {
  AcceleratorConfig slow = AcceleratorConfig::for_dims(64);
  slow.parallelism = 16;
  AcceleratorConfig fast = AcceleratorConfig::for_dims(64);
  fast.parallelism = 64;
  EXPECT_GT(PerfModel(slow).walk_timing().compute_us,
            PerfModel(fast).walk_timing().compute_us);
}

TEST(PerfModel, ShortWalkCostsLess) {
  const PerfModel pm(AcceleratorConfig::for_dims(32));
  const WalkTiming full = pm.walk_timing();
  const WalkTiming half = pm.walk_timing(36, 45);
  EXPECT_LT(half.total_us, full.total_us);
  EXPECT_LT(half.bytes_in, full.bytes_in);
}

TEST(ResourceModel, CalibratedPointsMatchTable6) {
  const ResourceModel rm;
  const DeviceSpec& dev = rm.device();

  struct Expected {
    std::size_t dims;
    std::size_t bram36, dsp, ff, lut;
    double bram_pct, dsp_pct, ff_pct, lut_pct;
  };
  const Expected rows[] = {
      {32, 183, 1379, 48609, 53330, 58.65, 79.80, 10.55, 23.15},
      {64, 271, 1552, 77584, 87901, 86.86, 89.81, 16.84, 38.15},
      {96, 272, 1573, 86081, 108639, 87.18, 91.03, 18.68, 47.15},
  };
  for (const auto& row : rows) {
    const auto usage = rm.estimate(AcceleratorConfig::for_dims(row.dims));
    EXPECT_TRUE(usage.calibrated);
    EXPECT_EQ(usage.bram36, row.bram36);
    EXPECT_EQ(usage.dsp, row.dsp);
    EXPECT_EQ(usage.ff, row.ff);
    EXPECT_EQ(usage.lut, row.lut);
    EXPECT_NEAR(usage.bram_pct(dev), row.bram_pct, 0.05);
    EXPECT_NEAR(usage.dsp_pct(dev), row.dsp_pct, 0.05);
    EXPECT_NEAR(usage.ff_pct(dev), row.ff_pct, 0.05);
    EXPECT_NEAR(usage.lut_pct(dev), row.lut_pct, 0.05);
    EXPECT_TRUE(usage.fits(dev));
  }
}

TEST(ResourceModel, StructuralEstimateScalesWithParallelism) {
  const ResourceModel rm;
  AcceleratorConfig small = tiny_config();
  AcceleratorConfig big = tiny_config();
  big.parallelism = 32;
  const auto us = rm.structural_estimate(small);
  const auto ub = rm.structural_estimate(big);
  EXPECT_LT(us.dsp, ub.dsp);
  EXPECT_LE(us.bram36, ub.bram36);
  EXPECT_FALSE(us.calibrated);
}

TEST(ResourceModel, StructuralInRightBallparkAtCalibrationPoints) {
  // The structural model is an estimate; require it within 2x of the
  // synthesized reality for DSP and BRAM.
  const ResourceModel rm;
  for (std::size_t dims : {32, 64, 96}) {
    const auto cfg = AcceleratorConfig::for_dims(dims);
    const auto cal = ResourceModel::calibrated_point(cfg).value();
    const auto est = rm.structural_estimate(cfg);
    EXPECT_GT(est.dsp, cal.dsp / 2);
    EXPECT_LT(est.dsp, cal.dsp * 2);
    EXPECT_GT(est.bram36, cal.bram36 / 4);
    EXPECT_LT(est.bram36, cal.bram36 * 4);
  }
}

TEST(EnergyModel, ReportArithmetic) {
  const EnergyReport r =
      EnergyModel::report({"test", 2.0}, /*ms_per_walk=*/5.0);
  EXPECT_DOUBLE_EQ(r.millijoules_per_walk, 10.0);
  EXPECT_DOUBLE_EQ(r.walks_per_joule, 100.0);
  EXPECT_THROW(EnergyModel::report({"x", 0.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(EnergyModel::report({"x", 1.0}, 0.0), std::invalid_argument);
}

TEST(EnergyModel, PlPowerScalesWithUtilization) {
  const EnergyModel em;
  const ResourceModel rm;
  const auto p32 =
      em.pl_power(rm.estimate(AcceleratorConfig::for_dims(32)), rm.device());
  const auto p96 =
      em.pl_power(rm.estimate(AcceleratorConfig::for_dims(96)), rm.device());
  EXPECT_GT(p32.watts, 0.7) << "must exceed static floor";
  EXPECT_GT(p96.watts, p32.watts) << "bigger design burns more";
  EXPECT_LT(p96.watts, 10.0) << "sanity ceiling for a mid-size PL design";
}

TEST(EnergyModel, FpgaBeatsCpusPerWalk) {
  // The extension claim: energy/walk on the PL is far below both CPUs
  // at every calibrated design point.
  const EnergyModel em;
  const ResourceModel rm;
  for (std::size_t dims : {32u, 64u, 96u}) {
    const auto cfg = AcceleratorConfig::for_dims(dims);
    const double fpga_ms = PerfModel(cfg).walk_timing().total_us / 1000.0;
    const auto fpga = EnergyModel::report(
        em.pl_power(rm.estimate(cfg), rm.device()), fpga_ms);
    const auto a53 = EnergyModel::report(
        EnergyModel::cortex_a53(),
        perfmodel::a53_proposed_model().predict_ms(dims));
    const auto i7 = EnergyModel::report(
        EnergyModel::i7_11700(),
        perfmodel::i7_proposed_model().predict_ms(dims));
    EXPECT_LT(fpga.millijoules_per_walk, a53.millijoules_per_walk / 5.0);
    EXPECT_LT(fpga.millijoules_per_walk, i7.millijoules_per_walk / 2.0);
  }
}

TEST(Accelerator, TrainsAndAccumulatesSimTime) {
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 80, .target_edges = 400, .num_classes = 3, .seed = 41});
  AcceleratorConfig cfg = tiny_config();
  Rng rng(42);
  Accelerator accel(data.graph.num_nodes(), cfg, rng);

  TrainConfig tcfg;
  tcfg.dims = cfg.dims;
  tcfg.walk.walk_length = cfg.walk_length;
  tcfg.walk.window = cfg.window;
  tcfg.negative_samples = cfg.negative_samples;
  tcfg.walks_per_node = 2;

  const MatrixF before = accel.extract_embedding();
  const TrainStats stats = train_all(accel, data.graph, tcfg, rng);
  const MatrixF after = accel.extract_embedding();

  EXPECT_GT(max_abs_diff(before, after), 1e-5);
  EXPECT_EQ(accel.walks_processed(), stats.num_walks);
  EXPECT_GT(accel.simulated_seconds(), 0.0);

  // Simulated time must be consistent with the perf model.
  const PerfModel pm(cfg);
  const double per_walk_us = pm.walk_timing().total_us;
  EXPECT_LE(accel.simulated_seconds() * 1e6,
            per_walk_us * static_cast<double>(stats.num_walks) + 1.0);
}

TEST(Accelerator, WindowMismatchThrows) {
  AcceleratorConfig cfg = tiny_config();
  Rng rng(1);
  Accelerator accel(20, cfg, rng);
  const std::vector<std::uint64_t> counts(20, 1);
  NegativeSampler sampler(counts);
  std::vector<NodeId> walk(cfg.walk_length, 0);
  EXPECT_THROW(accel.train_walk(walk, cfg.window + 1, sampler, 2,
                                NegativeMode::kPerWalk, rng),
               std::invalid_argument);
}

TEST(Accelerator, LearnsUsableEmbedding) {
  const LabeledGraph data = make_karate_club();
  AcceleratorConfig cfg;
  cfg.dims = 16;
  cfg.parallelism = 16;
  cfg.walk_length = 30;
  cfg.window = 8;
  cfg.negative_samples = 5;
  Rng rng(7);
  Accelerator accel(data.graph.num_nodes(), cfg, rng);

  TrainConfig tcfg;
  tcfg.dims = cfg.dims;
  tcfg.walk.walk_length = cfg.walk_length;
  tcfg.walk.window = cfg.window;
  tcfg.negative_samples = cfg.negative_samples;
  tcfg.walks_per_node = 20;
  train_all(accel, data.graph, tcfg, rng);

  // The two faction leaders should be far apart; a leader and a member
  // of its own faction close.
  const MatrixF emb = accel.extract_embedding();
  const double cross = cosine_similarity(emb.row(0), emb.row(33));
  const double within = cosine_similarity(emb.row(0), emb.row(1));
  EXPECT_GT(within, cross);
}

}  // namespace
}  // namespace seqge::fpga
