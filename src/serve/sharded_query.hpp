#pragma once
// The query engine: fan-out/merge over a ShardedEmbeddingStore, with one
// per-shard sub-engine (normalized rows + optional per-shard IVF index)
// and a shared top-k accumulator merging across shards. A one-shard
// store (the default) is the single-matrix case.
//
// Exact path: shards are scanned in ascending node order with one
// kernel, normalization, and accumulator, so results — neighbors,
// scores, tie-breaks — are identical for any shard count and to a
// brute-force scan over the same embedding values (tests assert this).
// Exact cosine queries batch: topk_batch walks each shard's rows once
// in 128-row blocks and scores every block against all of its queries
// while the block sits in L1 (simd::dot_topk_scan); a single topk is a
// batch of one through the same scan.
//
// IVF path: each shard carries its own coarse quantizer sized to the
// shard (nlist = 0 -> ~sqrt(shard rows)) and keeps its normalized rows
// re-packed in list order, so a probed cell is one contiguous stripe; a
// query probes `nprobe` cells *per shard* and all probed candidates
// merge through one accumulator. IVF search is cosine-ordered; dot
// queries always take the exact path.
//
// Incremental maintenance: constructing an engine with `previous` set
// reuses the prior engine's per-shard state instead of re-clustering —
//  * a shard whose snapshot version is unchanged is shared outright
//    (zero work, zero memory);
//  * a changed shard whose base lineage still covers the previous
//    engine (snapshot.base_version <= previous shard version) is
//    refreshed from the previous shard state: the shard's normalized
//    rows and index arrays are memcpy'd (engines are immutable, so the
//    new engine gets its own copy — O(shard) in bytes but no dot
//    products), then only ShardSnapshot::changed_since_base rows are
//    re-normalized, and a row re-runs the nearest-cell scan only once
//    its affinity to its assigned centroid has decayed more than
//    `reassign_threshold` below the assignment-time baseline (drift
//    accumulates across refreshes, so slow movers still re-assign).
//    What is skipped — k-means re-training and the full-shard
//    assignment pass — is the dominant rebuild cost;
//  * anything else (rebase/compaction since the previous engine) is
//    rebuilt from scratch.
// refresh_stats() reports which path each shard took.
//
// An engine is immutable after construction: every query method is
// const and safe from any number of threads, and the engine keeps the
// shard snapshots it was built from alive.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "serve/query_engine.hpp"
#include "serve/sharded_store.hpp"
#include "util/thread_pool.hpp"

namespace seqge::serve {

struct ShardedIndexConfig {
  /// Per-shard index configuration (IndexConfig::nlist == 0 sizes each
  /// shard's quantizer to ~sqrt(its rows); nprobe applies per shard).
  IndexConfig index{};
  /// Affinity decay (drop of dot(row, assigned centroid) below the
  /// assignment-time baseline, unit vectors) past which an
  /// incrementally refreshed row re-runs the nearest-cell scan.
  /// Measured against the baseline, not the previous refresh, so
  /// cumulative sub-threshold drift still triggers. 0 re-scans every
  /// changed row.
  float reassign_threshold = 0.05f;
  /// Threads applied to each query's per-shard fan-out (the calling
  /// thread counts, so N uses N-1 pool workers). 0 or 1 scans shards
  /// sequentially inline — the exact pre-fan-out code path. The exact
  /// path stays bit-identical either way: each shard accumulates its
  /// own top-k and the per-shard winners merge in shard order, which
  /// preserves the ascending-node arrival order score ties depend on
  /// (tests gate this against a brute-force scan).
  std::size_t scan_threads = 0;
};

/// How each shard was brought up to date by the last construction.
struct ShardedRefreshStats {
  std::size_t shards_reused = 0;     ///< shared from `previous` untouched
  std::size_t shards_refreshed = 0;  ///< incremental row updates only
  std::size_t shards_rebuilt = 0;    ///< full rebuild (incl. first build)
  std::size_t rows_updated = 0;      ///< changed rows re-normalized
  std::size_t rows_reassigned = 0;   ///< moved past threshold, new cell
};

class ShardedQueryEngine final {
 public:
  /// Builds per-shard engines for the store's current shard heads.
  /// `previous` (optional) must be an engine over the same store built
  /// with the same config; its per-shard state is reused/refreshed as
  /// described above. Throws std::invalid_argument on an empty store.
  explicit ShardedQueryEngine(const ShardedEmbeddingStore& store,
                              ShardedIndexConfig cfg = {},
                              const ShardedQueryEngine* previous = nullptr);
  ~ShardedQueryEngine();

  /// Store version this engine was built for (response freshness tag).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return layout_.num_rows;
  }
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const ShardedIndexConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] const ShardedRefreshStats& refresh_stats() const noexcept {
    return stats_;
  }

  /// Raw (un-normalized) embedding row of node u, backed by the shard
  /// snapshots this engine holds alive.
  [[nodiscard]] std::span<const float> embedding_row(NodeId u) const;

  /// Top-k most similar nodes to node u (u itself excluded), best
  /// first; ties broken by ascending node id. k is clamped to the
  /// number of nodes before anything is allocated.
  [[nodiscard]] std::vector<Neighbor> topk(
      NodeId u, std::size_t k, Similarity sim = Similarity::kCosine,
      std::size_t nprobe_override = 0) const;

  /// Top-k against an arbitrary query vector; `exclude` removes one
  /// node id (out-of-range keeps all).
  [[nodiscard]] std::vector<Neighbor> topk(
      std::span<const float> query, std::size_t k,
      Similarity sim = Similarity::kCosine, NodeId exclude = ~NodeId{0},
      std::size_t nprobe_override = 0) const;

  /// topk(nodes[i], k, sim) for every i, answers in input order and
  /// each `==` to the single-node call. Exact cosine queries share one
  /// pass over the rows; IVF, quantized and dot-similarity queries run
  /// one at a time. Every node is range-checked before any scan, so an
  /// out-of-range id throws std::invalid_argument with no partial answer.
  [[nodiscard]] std::vector<std::vector<Neighbor>> topk_batch(
      std::span<const NodeId> nodes, std::size_t k,
      Similarity sim = Similarity::kCosine) const;

  /// Link-prediction score of candidate edge (u, v), bit-identical to
  /// eval/link_prediction.hpp's score_edge on the same embedding.
  [[nodiscard]] double score(NodeId u, NodeId v,
                             EdgeScore kind = EdgeScore::kCosine) const;

 private:
  class Shard;

  /// Runs scan(shard, tops) over every shard for `nq` queries, one
  /// acc_k-slot accumulator each, and returns them merged across shards
  /// with rows arriving in ascending node order (see the .cpp).
  template <typename Scan>
  std::vector<TopKAccumulator> sweep(std::size_t nq, std::size_t acc_k,
                                     const Scan& scan) const;

  ShardedIndexConfig cfg_;
  std::uint64_t version_ = 0;
  std::size_t dims_ = 0;
  ShardLayout layout_;  ///< copied from the store: one mapping truth
  std::vector<std::shared_ptr<const Shard>> shards_;
  ShardedRefreshStats stats_;
  /// Fan-out pool (null when cfg_.scan_threads <= 1); shared with the
  /// previous engine across incremental rebuilds so worker threads
  /// survive engine swaps.
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace seqge::serve
