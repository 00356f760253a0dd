#pragma once
// Building blocks of the query engine (serve/sharded_query.hpp): the
// result type, the top-k accumulator every scan offers into, the shared
// L2 normalization, the index configuration, and the IVF quantizer.
//
// Two k-NN paths share them:
//  * exact brute force — every row scored with the dense kernels of
//    linalg/kernels.hpp (dot or cosine; cosine uses rows L2-normalized
//    once at engine construction, so a query is a pure dot scan);
//  * IVF (inverted-file) — a coarse spherical k-means quantizer
//    partitions the nodes into nlist cells; a query scores the nlist
//    centroids, then scans only the nprobe nearest cells. Sub-linear in
//    n, with recall controlled by nprobe (nprobe == nlist degenerates
//    to an exact scan).
//
// Link-prediction scoring reuses the eval/ scorers (EdgeScore,
// score_edge) so a served score is bit-identical to the offline
// evaluation's.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "eval/link_prediction.hpp"
#include "linalg/matrix.hpp"
#include "serve/quantized_store.hpp"

namespace seqge::serve {

struct Neighbor {
  NodeId node = 0;
  float score = 0.0f;
};

enum class Similarity { kCosine, kDot };

/// Fixed-capacity top-k accumulator: a min-heap on score keeps the k
/// best seen so far, so a full scan is O(n log k). offer() admission
/// depends only on scores (ties at the cutoff keep the earlier
/// arrival), so two scans offering the same (node, score) stream in
/// the same order produce identical results — that is what makes the
/// sharded fan-out bit-identical to a single in-order exact scan.
class TopKAccumulator {
 public:
  explicit TopKAccumulator(std::size_t k) : k_(k) { heap_.reserve(k + 1); }

  void offer(NodeId node, float score) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back({node, score});
      std::push_heap(heap_.begin(), heap_.end(), worse);
    } else if (score > heap_.front().score) {
      std::pop_heap(heap_.begin(), heap_.end(), worse);
      heap_.back() = {node, score};
      std::push_heap(heap_.begin(), heap_.end(), worse);
    }
  }

  /// A score s <= cutoff() cannot enter, so offer(node, s) would be a
  /// no-op: scans test it first and skip the call. NaN (nothing is
  /// skipped) while the heap is empty or not yet full.
  [[nodiscard]] float cutoff() const noexcept {
    return heap_.empty() || heap_.size() < k_
               ? std::numeric_limits<float>::quiet_NaN()
               : heap_.front().score;
  }

  /// Best first; ties broken by node id for deterministic output.
  [[nodiscard]] std::vector<Neighbor> take();

 private:
  static bool worse(const Neighbor& a, const Neighbor& b) {
    return a.score != b.score ? a.score > b.score : a.node < b.node;
  }
  std::size_t k_;
  std::vector<Neighbor> heap_;
};

/// L2-normalize every row in place (zero rows stay zero) — the shared
/// preprocessing of every cosine path; using exactly this function
/// everywhere keeps scores bit-identical across shard counts.
void l2_normalize_rows(MatrixF& m);
/// L2-normalize one vector in place.
void l2_normalize(std::span<float> v);

struct IndexConfig {
  enum class Kind { kBruteForce, kIvf };
  Kind kind = Kind::kBruteForce;
  /// Coarse cells for the IVF index; 0 = ~sqrt(num_nodes), clamped to
  /// [1, num_nodes].
  std::size_t nlist = 0;
  /// Cells scanned per query (clamped to nlist). Larger = higher recall,
  /// slower.
  std::size_t nprobe = 8;
  /// Lloyd iterations for the spherical k-means quantizer.
  std::size_t kmeans_iters = 6;
  /// Rows used to train the quantizer (assignment always uses all rows);
  /// 0 = min(num_nodes, 64 * nlist).
  std::size_t kmeans_sample = 0;
  std::uint64_t seed = 1;
  /// Opt-in quantized scan (cosine queries only; dot always takes the
  /// float path): the exact/IVF scan scores int8-quantized rows (kInt8:
  /// float scales; kBfp: int16 shared exponents per block), then the
  /// best k * quant_rerank candidates are re-ranked with the float
  /// rows, holding recall@10 >= 0.95 vs. the float scan at a fraction
  /// of the scan bandwidth (serve/quantized_store.hpp).
  QuantMode quant = QuantMode::kNone;
  /// Dims per quantization scale group (0 = one scale per row).
  std::size_t quant_block = 0;
  /// Power-of-two scales (BFP shared exponent).
  bool quant_pow2 = false;
  /// Candidate multiplier for the float re-rank (clamped to >= 1).
  /// 8 is the measured knee at 50k-node scale: 4 plateaus near
  /// recall 0.9 (approximate-order misses fall outside the candidate
  /// set), 16 doubles the re-rank cost for < 0.04 more recall.
  std::size_t quant_rerank = 8;
};

/// Coarse spherical-k-means quantizer + CSR member lists over a set of
/// L2-normalized rows — one per engine shard, built in full on a fresh
/// shard and maintained incrementally afterwards: the engine
/// (serve/sharded_query.hpp) keeps the centroids and re-assigns only
/// rows that moved.
struct IvfIndex {
  MatrixF centroids;                      ///< nlist x dims, unit rows
  std::vector<std::uint32_t> cell;        ///< row -> cell
  /// dot(row, centroids[cell[row]]) at the time the row was (re-)
  /// assigned — the drift baseline for incremental maintenance: a
  /// refresh re-runs the nearest-centroid scan once a row's affinity
  /// to its assigned centroid has decayed past a threshold *since
  /// assignment*, so sub-threshold drift accumulates instead of being
  /// forgotten at each refresh.
  std::vector<float> cell_dot;
  std::vector<std::uint32_t> list_off;    ///< nlist + 1 CSR offsets
  std::vector<std::uint32_t> list_nodes;  ///< row ids in list order

  [[nodiscard]] std::size_t nlist() const noexcept {
    return centroids.rows();
  }
  [[nodiscard]] bool empty() const noexcept { return centroids.empty(); }

  /// Full build: train the quantizer on a sample of `normalized`, then
  /// assign every row and build the CSR lists.
  void build(const MatrixF& normalized, const IndexConfig& cfg);
  /// Index of the centroid nearest (max dot) to the unit row; the
  /// two-argument overload also reports that best dot.
  [[nodiscard]] std::size_t nearest(std::span<const float> row) const;
  [[nodiscard]] std::size_t nearest(std::span<const float> row,
                                    float& best_dot) const;
  /// Rebuild list_off/list_nodes from cell (after re-assignments).
  void rebuild_lists();
};

/// recall@k of `approx` against exact ground truth `exact`: fraction of
/// the exact set present in the approximate set. Used by the serving
/// bench and tests to validate IVF tuning.
[[nodiscard]] double recall_at_k(std::span<const Neighbor> exact,
                                 std::span<const Neighbor> approx);

}  // namespace seqge::serve
