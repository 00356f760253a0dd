#include "serve/sharded_query.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace seqge::serve {

namespace {

/// Per-shard scan latency across the fan-out (observed from pool
/// threads; the histogram's sharded stripes keep that contention-free).
obs::Histogram* shard_scan_us() {
  static obs::Histogram* const h = obs::Registry::global().histogram(
      "seqge_query_shard_scan_us", obs::default_latency_buckets_us(), {},
      "One shard's scan within a fan-out (microseconds)");
  return h;
}

/// Query counters: one relaxed add each; the int8 re-rank accounting
/// runs only while obs is enabled (bench_serving gates the scan path's
/// obs overhead at <= 2%).
struct QueryMetrics {
  obs::Counter* scans;
  obs::Counter* ivf_probes;
  obs::Counter* quant_candidates;
  obs::Counter* quant_corrections;
};

QueryMetrics& query_metrics() {
  static QueryMetrics m{
      obs::Registry::global().counter("seqge_query_scans_total", {},
                                      "Top-k scans executed"),
      obs::Registry::global().counter("seqge_query_ivf_probes_total", {},
                                      "IVF cells probed"),
      obs::Registry::global().counter(
          "seqge_query_quant_candidates_total", {},
          "int8 candidates float-re-ranked"),
      obs::Registry::global().counter(
          "seqge_query_quant_corrections_total", {},
          "Final top-k entries the int8 order missed (re-rank saves)"),
  };
  return m;
}

}  // namespace

// One shard's query-side state: the shard snapshot (kept alive for raw
// row access), its rows L2-normalized into a contiguous matrix, and —
// when the config asks for IVF — a per-shard quantizer. Immutable once
// constructed; "incremental" construction copies the previous state and
// patches only the changed rows before freezing.
class ShardedQueryEngine::Shard {
 public:
  /// Fresh build: normalize every row, train the quantizer from
  /// scratch.
  Shard(std::shared_ptr<const ShardSnapshot> snap, const IndexConfig& cfg)
      : snap_(std::move(snap)),
        normalized_(snap_->num_rows(), snap_->dims) {
    for (std::size_t r = 0; r < snap_->num_rows(); ++r) {
      auto src = snap_->row(r);
      std::copy(src.begin(), src.end(), normalized_.row(r).begin());
    }
    l2_normalize_rows(normalized_);
    if (cfg.kind == IndexConfig::Kind::kIvf && snap_->num_rows() > 0) {
      ivf_.build(normalized_, cfg);
      pack();
    }
    if (cfg.quant != QuantMode::kNone && snap_->num_rows() > 0) {
      quantize({cfg.quant_block, cfg.quant_pow2,
                cfg.quant == QuantMode::kBfp});
    }
  }

  /// Incremental refresh: start from `prev`'s state and re-normalize
  /// only the rows changed since the shared base. The quantizer's
  /// centroids are kept as-is (no re-clustering); a changed row re-runs
  /// the nearest-centroid scan only once its affinity to its assigned
  /// centroid has decayed more than `threshold` below the
  /// assignment-time baseline (IvfIndex::cell_dot) — measured against
  /// the baseline, not the previous refresh, so sub-threshold drift
  /// accumulates across refreshes instead of escaping re-assignment
  /// forever. The packed rows (and their codes) are patched in place
  /// unless a row changed cell, which re-packs the whole shard.
  Shard(const Shard& prev, std::shared_ptr<const ShardSnapshot> snap,
        float threshold, ShardedRefreshStats& stats)
      : snap_(std::move(snap)),
        normalized_(prev.normalized_),
        ivf_(prev.ivf_),
        packed_(prev.packed_),
        packed_pos_(prev.packed_pos_),
        quant_(prev.quant_) {
    std::vector<float> fresh(snap_->dims);
    bool lists_dirty = false;
    for (std::uint32_t r : snap_->changed_since_base) {
      auto src = snap_->row(r);
      fresh.assign(src.begin(), src.end());
      l2_normalize(fresh);
      auto dst = normalized_.row(r);
      std::copy(fresh.begin(), fresh.end(), dst.begin());
      ++stats.rows_updated;
      if (ivf_.empty()) {
        if (!quant_.empty()) quant_.requantize_row(r, dst);
        continue;
      }
      const float affinity =
          dot<float>(ivf_.centroids.row(ivf_.cell[r]), dst);
      if (ivf_.cell_dot[r] - affinity > threshold) {
        float best_dot = -2.0f;
        const auto c =
            static_cast<std::uint32_t>(ivf_.nearest(dst, best_dot));
        ivf_.cell_dot[r] = best_dot;  // new assignment-time baseline
        if (c != ivf_.cell[r]) {
          ivf_.cell[r] = c;
          lists_dirty = true;
          ++stats.rows_reassigned;
        }
      }
    }
    if (ivf_.empty()) return;
    if (lists_dirty) {
      ivf_.rebuild_lists();
      pack();
      if (!quant_.empty()) quantize(quant_.config());
      return;
    }
    for (std::uint32_t r : snap_->changed_since_base) {
      const std::uint32_t i = packed_pos_[r];
      copy<float>(normalized_.row(r), packed_.row(i));
      if (!quant_.empty()) quant_.requantize_row(i, packed_.row(i));
    }
  }

  [[nodiscard]] std::uint64_t version() const noexcept {
    return snap_->version;
  }
  [[nodiscard]] std::uint64_t base_version() const noexcept {
    return snap_->base_version;
  }
  [[nodiscard]] std::size_t num_rows() const noexcept {
    return snap_->num_rows();
  }
  [[nodiscard]] NodeId row_begin() const noexcept {
    return snap_->row_begin;
  }
  [[nodiscard]] std::span<const float> raw_row(std::size_t local) const {
    return snap_->row(local);
  }

  /// Exact cosine scan of every row (local order == ascending global
  /// id) for tops.size() unit queries (`qs`, row-major), offering
  /// global node ids: query j skips exclude[j] and fills tops[j]. One
  /// pass over the rows serves the whole batch.
  void scan_exact(const float* qs, std::span<const NodeId> exclude,
                  std::span<TopKAccumulator> tops) const {
    // Loop invariants copied into the row callback (see scan_quant).
    const NodeId begin = snap_->row_begin;
    const std::uint8_t* dead = snap_->dead.empty() ? nullptr
                                                   : snap_->dead.data();
    simd::dot_topk_scan(
        normalized_.data(), normalized_.rows(), normalized_.cols(), qs,
        tops.size(),
        [begin, dead, exclude, tops](std::size_t j, std::size_t base,
                                     std::span<const float> scores) {
          TopKAccumulator& top = tops[j];
          const NodeId skip = exclude[j];
          float cutoff = top.cutoff();
          for (std::size_t i = 0; i < scores.size(); ++i) {
            if (scores[i] <= cutoff) continue;  // offer would drop it
            const std::size_t r = base + i;
            const NodeId node = begin + static_cast<NodeId>(r);
            if (node == skip || (dead != nullptr && dead[r] != 0)) continue;
            top.offer(node, scores[i]);
            cutoff = top.cutoff();
          }
        });
  }

  /// Exact dot-similarity scan of the raw rows, which a delta chain
  /// leaves scattered, so one row at a time.
  void scan_dot(std::span<const float> q, NodeId exclude_global,
                TopKAccumulator& top) const {
    const NodeId begin = snap_->row_begin;
    for (std::size_t r = 0; r < num_rows(); ++r) {
      const NodeId node = begin + static_cast<NodeId>(r);
      if (node == exclude_global || snap_->tombstoned(r)) continue;
      top.offer(node, dot<float>(snap_->row(r), q));
    }
  }

  /// Cells scan_ivf / scan_quant probe for `nprobe`: 0 when they fall
  /// back to scanning every row.
  [[nodiscard]] std::size_t probes(std::size_t nprobe) const noexcept {
    return ivf_.empty() || nprobe >= ivf_.nlist() ? 0 : nprobe;
  }

  /// Probe the `nprobe` best cells of this shard's quantizer (cosine
  /// only); each probed cell is one contiguous stripe of packed_. Falls
  /// back to the exact cosine scan when the shard has no index or
  /// nprobe covers every cell.
  void scan_ivf(std::span<const float> unit_q, std::size_t nprobe,
                NodeId exclude_global, TopKAccumulator& top) const {
    if (probes(nprobe) == 0) {
      scan_exact(unit_q.data(), {&exclude_global, 1}, {&top, 1});
      return;
    }
    const NodeId begin = snap_->row_begin;
    for (const Neighbor& cell : rank_cells(unit_q, nprobe)) {
      for (std::uint32_t i = ivf_.list_off[cell.node];
           i < ivf_.list_off[cell.node + 1]; ++i) {
        const std::uint32_t r = ivf_.list_nodes[i];
        const NodeId node = begin + static_cast<NodeId>(r);
        if (node == exclude_global || snap_->tombstoned(r)) continue;
        top.offer(node, dot<float>(packed_.row(i), unit_q));
      }
    }
  }

  /// Normalized row for the float re-rank of the quantized path. With
  /// IVF it is read from packed_ (same values), where the cells just
  /// probed keep it in cache.
  [[nodiscard]] std::span<const float> normalized_row(
      std::size_t local) const {
    return ivf_.empty() ? normalized_.row(local)
                        : packed_.row(packed_pos_[local]);
  }

  /// Int8 approximate scan offering global node ids: with an index and
  /// nprobe below nlist, the probed cells (cells ranked with the float
  /// centroids, each one contiguous code stripe); otherwise every row.
  void scan_quant(std::span<const float> unit_q,
                  const QuantizedRowStore::QuantizedQuery& qq,
                  std::size_t nprobe, NodeId exclude_global,
                  TopKAccumulator& top) const {
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    if (probes(nprobe) == 0) {
      ranges.emplace_back(0, num_rows());
    } else {
      for (const Neighbor& cell : rank_cells(unit_q, nprobe)) {
        ranges.emplace_back(ivf_.list_off[cell.node],
                            ivf_.list_off[cell.node + 1]);
      }
    }
    // Loop invariants copied into the row callback, and one scan_range
    // call site so the fused kernel inlines: top.offer stores through
    // the heap, so anything read through a reference would be reloaded
    // on every row.
    const NodeId row_begin = snap_->row_begin;
    const std::uint8_t* dead = snap_->dead.empty() ? nullptr
                                                   : snap_->dead.data();
    const std::uint32_t* rows =
        ivf_.empty() ? nullptr : ivf_.list_nodes.data();
    for (const auto& [begin, end] : ranges) {
      quant_.scan_range(
          begin, end, qq,
          [row_begin, exclude_global, dead, rows, &top](std::size_t i,
                                                        float s) {
            const std::uint32_t r =
                rows != nullptr ? rows[i] : static_cast<std::uint32_t>(i);
            const NodeId node = row_begin + static_cast<NodeId>(r);
            if (node == exclude_global || (dead != nullptr && dead[r] != 0)) {
              return;
            }
            top.offer(node, s);
          });
    }
  }

 private:
  /// Re-pack normalized_ in IVF list order: a probed cell is then one
  /// sequential stripe instead of a gather over the whole shard.
  void pack() {
    const std::size_t n = normalized_.rows();
    packed_ = MatrixF(n, normalized_.cols());
    packed_pos_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = ivf_.list_nodes[i];
      copy<float>(normalized_.row(r), packed_.row(i));
      packed_pos_[r] = static_cast<std::uint32_t>(i);
    }
  }

  /// Int8 codes over the rows the scans read: packed_ with IVF (so
  /// probed cells stay contiguous in the code array too), node order
  /// without.
  void quantize(const QuantConfig& qcfg) {
    quant_ = QuantizedRowStore(ivf_.empty() ? normalized_ : packed_, qcfg);
  }

  /// The `nprobe` cells whose centroids score best against unit_q.
  [[nodiscard]] std::vector<Neighbor> rank_cells(
      std::span<const float> unit_q, std::size_t nprobe) const {
    TopKAccumulator cell_top(nprobe);
    for (std::size_t c = 0; c < ivf_.nlist(); ++c) {
      cell_top.offer(static_cast<NodeId>(c),
                     dot<float>(ivf_.centroids.row(c), unit_q));
    }
    return cell_top.take();
  }

  std::shared_ptr<const ShardSnapshot> snap_;
  MatrixF normalized_;
  IvfIndex ivf_;
  // With IVF: packed_.row(i) == normalized_.row(ivf_.list_nodes[i]),
  // and packed_pos_ is the inverse (local row -> packed position) that
  // lets an incremental refresh patch rows in place.
  MatrixF packed_;
  std::vector<std::uint32_t> packed_pos_;
  QuantizedRowStore quant_;  ///< empty unless IndexConfig::quant is set
};

ShardedQueryEngine::ShardedQueryEngine(const ShardedEmbeddingStore& store,
                                       ShardedIndexConfig cfg,
                                       const ShardedQueryEngine* previous)
    : cfg_(cfg) {
  // Sample the version before the shard heads: heads read afterwards
  // are at least this fresh, so engine versions — and the response
  // versions the server reports — stay monotonic across rebuilds.
  version_ = store.version();
  const auto views = store.view();
  if (views.empty()) {
    throw std::invalid_argument("ShardedQueryEngine: store is empty");
  }
  // view() being non-empty establishes version() > 0, so the store's
  // layout is published and safe to copy.
  layout_ = store.layout();
  dims_ = views.front()->dims;

  shards_.reserve(views.size());
  for (std::size_t s = 0; s < views.size(); ++s) {
    const Shard* prev = previous != nullptr && s < previous->shards_.size()
                            ? previous->shards_[s].get()
                            : nullptr;
    const auto& snap = views[s];
    if (prev != nullptr && prev->version() == snap->version) {
      shards_.push_back(previous->shards_[s]);
      ++stats_.shards_reused;
    } else if (prev != nullptr && prev->num_rows() == snap->num_rows() &&
               snap->base_version <= prev->version()) {
      shards_.push_back(std::make_shared<const Shard>(
          *prev, snap, cfg_.reassign_threshold, stats_));
      ++stats_.shards_refreshed;
    } else {
      shards_.push_back(std::make_shared<const Shard>(snap, cfg_.index));
      ++stats_.shards_rebuilt;
    }
  }

  if (cfg_.scan_threads > 1) {
    // Reuse the previous engine's pool across incremental rebuilds so
    // worker threads survive the engine swap (both engines may serve
    // queries briefly; parallel_for serializes their batches).
    if (previous != nullptr && previous->pool_ != nullptr &&
        previous->pool_->workers() == cfg_.scan_threads - 1) {
      pool_ = previous->pool_;
    } else {
      pool_ = std::make_shared<ThreadPool>(cfg_.scan_threads - 1);
    }
  }
}

ShardedQueryEngine::~ShardedQueryEngine() = default;

std::span<const float> ShardedQueryEngine::embedding_row(NodeId u) const {
  if (u >= layout_.num_rows) {
    throw std::invalid_argument(
        "ShardedQueryEngine::embedding_row: node out of range");
  }
  const std::size_t s = layout_.shard_of(u);
  return shards_[s]->raw_row(u - shards_[s]->row_begin());
}

template <typename Scan>
std::vector<TopKAccumulator> ShardedQueryEngine::sweep(
    std::size_t nq, std::size_t acc_k, const Scan& scan) const {
  const auto accumulators = [nq, acc_k] {
    std::vector<TopKAccumulator> tops;
    tops.reserve(nq);
    for (std::size_t j = 0; j < nq; ++j) tops.emplace_back(acc_k);
    return tops;
  };
  std::vector<TopKAccumulator> merged = accumulators();
  // The scan_fanout span covers the whole shard sweep — threaded or
  // sequential — so every sharded engine shows up in the span table.
  OBS_SPAN("scan_fanout");
  if (pool_ != nullptr && shards_.size() > 1) {
    // Fan out: each shard fills its own accumulators, then the
    // per-shard winners merge in shard order. Shards cover ascending
    // node ranges and take() sorts ties by ascending node, so
    // equal-score arrivals reach `merged` in ascending node order —
    // exactly the sequential scan's arrival order, hence bit-identical
    // results.
    std::vector<std::vector<std::vector<Neighbor>>> locals(shards_.size());
    pool_->parallel_for(shards_.size(), [&](std::size_t s) {
      const bool timed = obs::enabled();
      const double t0 = timed ? obs::wall_us() : 0.0;
      std::vector<TopKAccumulator> local = accumulators();
      scan(*shards_[s], std::span<TopKAccumulator>(local));
      for (TopKAccumulator& top : local) locals[s].push_back(top.take());
      if (timed) shard_scan_us()->observe(obs::wall_us() - t0);
    });
    for (const auto& shard_local : locals) {
      for (std::size_t j = 0; j < nq; ++j) {
        for (const Neighbor& n : shard_local[j]) {
          merged[j].offer(n.node, n.score);
        }
      }
    }
  } else {
    const bool timed = obs::enabled();
    for (const auto& shard : shards_) {
      const double t0 = timed ? obs::wall_us() : 0.0;
      scan(*shard, std::span<TopKAccumulator>(merged));
      if (timed) shard_scan_us()->observe(obs::wall_us() - t0);
    }
  }
  return merged;
}

std::vector<Neighbor> ShardedQueryEngine::topk(
    std::span<const float> query, std::size_t k, Similarity sim,
    NodeId exclude, std::size_t nprobe_override) const {
  if (query.size() != dims_) {
    throw std::invalid_argument(
        "ShardedQueryEngine::topk: query dims mismatch");
  }
  QueryMetrics& metrics = query_metrics();
  metrics.scans->add();
  // Clamp before any accumulator reserves k slots: a hostile wire k
  // must not turn into a multi-GiB allocation.
  k = std::min(k, num_nodes());
  std::vector<float> unit;
  std::span<const float> q = query;
  if (sim == Similarity::kCosine) {
    unit.assign(query.begin(), query.end());
    l2_normalize(unit);
    q = unit;
  }

  const bool use_ivf =
      cfg_.index.kind == IndexConfig::Kind::kIvf &&
      sim == Similarity::kCosine;
  const bool use_quant =
      cfg_.index.quant != QuantMode::kNone && sim == Similarity::kCosine;
  const std::size_t nprobe =
      nprobe_override != 0 ? nprobe_override : cfg_.index.nprobe;
  if (use_ivf) {
    std::size_t probes = 0;
    for (const auto& shard : shards_) probes += shard->probes(nprobe);
    if (probes != 0) metrics.ivf_probes->add(probes);
  }

  // Quantized scans collect k * rerank approximate candidates for the
  // float re-rank below; float scans accumulate the final k directly.
  const std::size_t acc_k =
      use_quant ? k * std::max<std::size_t>(cfg_.index.quant_rerank, 1)
                : k;
  QuantizedRowStore::QuantizedQuery qq;
  if (use_quant) {
    qq = QuantizedRowStore::quantize_query(
        q, {cfg_.index.quant_block, cfg_.index.quant_pow2,
            cfg_.index.quant == QuantMode::kBfp});
  }
  TopKAccumulator merged = std::move(
      sweep(1, acc_k,
            [&](const Shard& shard, std::span<TopKAccumulator> tops) {
              if (use_quant) {
                shard.scan_quant(q, qq, use_ivf ? nprobe : 0, exclude,
                                 tops[0]);
              } else if (use_ivf) {
                shard.scan_ivf(q, nprobe, exclude, tops[0]);
              } else if (sim == Similarity::kCosine) {
                shard.scan_exact(q.data(), {&exclude, 1}, tops);
              } else {
                shard.scan_dot(q, exclude, tops[0]);
              }
            })
          .front());
  if (!use_quant) return merged.take();

  // Float re-rank of the quantized candidates, offered in ascending
  // node order so score ties resolve exactly like the float scan's.
  auto cands = merged.take();
  // The int8 order's own top k, for the re-rank correction count.
  std::vector<NodeId> int8_head;
  if (obs::enabled()) {
    for (std::size_t i = 0; i < std::min(k, cands.size()); ++i) {
      int8_head.push_back(cands[i].node);
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.node < b.node;
            });
  TopKAccumulator top(k);
  for (const Neighbor& c : cands) {
    const std::size_t s = layout_.shard_of(c.node);
    top.offer(c.node,
              dot<float>(shards_[s]->normalized_row(
                             c.node - shards_[s]->row_begin()),
                         q));
  }
  std::vector<Neighbor> hits = top.take();
  if (obs::enabled()) {
    metrics.quant_candidates->add(cands.size());
    // Re-rank hit rate: final entries the int8 order alone would have
    // missed (not already in its first k).
    std::uint64_t corrections = 0;
    for (const Neighbor& h : hits) {
      if (std::find(int8_head.begin(), int8_head.end(), h.node) ==
          int8_head.end()) {
        ++corrections;
      }
    }
    metrics.quant_corrections->add(corrections);
  }
  return hits;
}

std::vector<Neighbor> ShardedQueryEngine::topk(
    NodeId u, std::size_t k, Similarity sim,
    std::size_t nprobe_override) const {
  // Route through the raw row: the span overload re-normalizes for
  // cosine, which keeps one scan path for node and vector queries.
  return topk(embedding_row(u), k, sim, u, nprobe_override);
}

std::vector<std::vector<Neighbor>> ShardedQueryEngine::topk_batch(
    std::span<const NodeId> nodes, std::size_t k, Similarity sim) const {
  for (NodeId u : nodes) (void)embedding_row(u);  // throws before any scan
  std::vector<std::vector<Neighbor>> out;
  out.reserve(nodes.size());
  if (sim != Similarity::kCosine ||
      cfg_.index.kind == IndexConfig::Kind::kIvf ||
      cfg_.index.quant != QuantMode::kNone || nodes.empty()) {
    for (NodeId u : nodes) out.push_back(topk(u, k, sim));
    return out;
  }
  query_metrics().scans->add(nodes.size());
  // Each query normalized exactly as topk's span overload does it.
  MatrixF unit(nodes.size(), dims_);
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    const auto row = embedding_row(nodes[j]);
    std::copy(row.begin(), row.end(), unit.row(j).begin());
    l2_normalize(unit.row(j));
  }
  auto tops = sweep(nodes.size(), std::min(k, num_nodes()),
                    [&](const Shard& shard, std::span<TopKAccumulator> t) {
                      shard.scan_exact(unit.data(), nodes, t);
                    });
  for (TopKAccumulator& top : tops) out.push_back(top.take());
  return out;
}

double ShardedQueryEngine::score(NodeId u, NodeId v, EdgeScore kind) const {
  return score_edge(embedding_row(u), embedding_row(v), kind);
}

}  // namespace seqge::serve
