#include "serve/query_engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/kernels.hpp"
#include "util/rng.hpp"

namespace seqge::serve {

std::vector<Neighbor> TopKAccumulator::take() {
  std::sort(heap_.begin(), heap_.end(), [](const Neighbor& a,
                                           const Neighbor& b) {
    return a.score != b.score ? a.score > b.score : a.node < b.node;
  });
  return std::move(heap_);
}

void l2_normalize(std::span<float> v) {
  const auto n = static_cast<float>(l2_norm<float>(v));
  if (n > 0.0f) scale(1.0f / n, v);
}

void l2_normalize_rows(MatrixF& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) l2_normalize(m.row(r));
}

// --- IvfIndex ---------------------------------------------------------------

void IvfIndex::build(const MatrixF& normalized, const IndexConfig& cfg) {
  const std::size_t n = normalized.rows();
  const std::size_t dims = normalized.cols();
  std::size_t nl = cfg.nlist != 0
                       ? cfg.nlist
                       : static_cast<std::size_t>(
                             std::sqrt(static_cast<double>(n)));
  nl = std::clamp<std::size_t>(nl, 1, n);

  Rng rng(cfg.seed);

  // Train the quantizer on a sample (assignment below always uses every
  // row); spherical k-means — centroids re-normalized each iteration so
  // "nearest centroid" is a plain dot product.
  std::size_t sample = cfg.kmeans_sample != 0 ? cfg.kmeans_sample : 64 * nl;
  sample = std::min(sample, n);
  std::vector<std::uint32_t> train_rows(n);
  std::iota(train_rows.begin(), train_rows.end(), 0u);
  for (std::size_t i = 0; i < sample; ++i) {
    std::swap(train_rows[i], train_rows[i + rng.bounded(n - i)]);
  }
  train_rows.resize(sample);

  centroids = MatrixF(nl, dims);
  for (std::size_t c = 0; c < nl; ++c) {
    copy<float>(normalized.row(train_rows[c % sample]), centroids.row(c));
  }

  std::vector<std::uint32_t> assign(sample, 0);
  for (std::size_t iter = 0; iter < cfg.kmeans_iters; ++iter) {
    for (std::size_t i = 0; i < sample; ++i) {
      assign[i] =
          static_cast<std::uint32_t>(nearest(normalized.row(train_rows[i])));
    }
    centroids.fill(0.0f);
    std::vector<std::uint32_t> counts(nl, 0);
    for (std::size_t i = 0; i < sample; ++i) {
      axpy<float>(1.0f, normalized.row(train_rows[i]),
                  centroids.row(assign[i]));
      ++counts[assign[i]];
    }
    for (std::size_t c = 0; c < nl; ++c) {
      if (counts[c] == 0) {
        // Empty cell: reseed from a random training row.
        copy<float>(normalized.row(train_rows[rng.bounded(sample)]),
                    centroids.row(c));
      }
    }
    l2_normalize_rows(centroids);
  }

  // Full assignment pass over every row -> CSR member lists, recording
  // each row's assignment-time affinity as the drift baseline.
  cell.resize(n);
  cell_dot.resize(n);
#pragma omp parallel for if (n > 4096) schedule(static)
  for (std::size_t r = 0; r < n; ++r) {
    float best_dot = -2.0f;
    cell[r] = static_cast<std::uint32_t>(nearest(normalized.row(r),
                                                 best_dot));
    cell_dot[r] = best_dot;
  }
  rebuild_lists();
}

std::size_t IvfIndex::nearest(std::span<const float> row) const {
  float best_dot = -2.0f;
  return nearest(row, best_dot);
}

std::size_t IvfIndex::nearest(std::span<const float> row,
                              float& best_dot) const {
  std::size_t best = 0;
  best_dot = -2.0f;
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    const float d = dot<float>(centroids.row(c), row);
    if (d > best_dot) {
      best_dot = d;
      best = c;
    }
  }
  return best;
}

void IvfIndex::rebuild_lists() {
  const std::size_t n = cell.size();
  const std::size_t nl = nlist();
  list_off.assign(nl + 1, 0);
  for (std::size_t r = 0; r < n; ++r) ++list_off[cell[r] + 1];
  for (std::size_t c = 0; c < nl; ++c) list_off[c + 1] += list_off[c];
  list_nodes.resize(n);
  std::vector<std::uint32_t> cursor(list_off.begin(), list_off.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    list_nodes[cursor[cell[r]]++] = static_cast<std::uint32_t>(r);
  }
}

double recall_at_k(std::span<const Neighbor> exact,
                   std::span<const Neighbor> approx) {
  if (exact.empty()) return 1.0;
  std::size_t hits = 0;
  for (const Neighbor& e : exact) {
    for (const Neighbor& a : approx) {
      if (a.node == e.node) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(exact.size());
}

}  // namespace seqge::serve
