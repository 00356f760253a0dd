#pragma once
// Brute-force top-k oracle for the serving tests: every row scored with
// dot<float> against the query, sorted by (score desc, node asc). It
// shares only l2_normalize and the dot kernel with the engine — no
// accumulator, shards, or index — so an engine answer that is `==` to
// it is bit-identical to a plain in-order scan.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "serve/query_engine.hpp"

namespace seqge::serve {

/// Top-k neighbours of node u in `emb` (u excluded, rows with
/// dead[r] != 0 skipped); cosine normalizes rows and query first.
inline std::vector<Neighbor> brute_force_topk(
    const MatrixF& emb, NodeId u, std::size_t k,
    Similarity sim = Similarity::kCosine,
    std::span<const std::uint8_t> dead = {}) {
  MatrixF rows = emb;
  std::vector<float> q(emb.row(u).begin(), emb.row(u).end());
  if (sim == Similarity::kCosine) {
    l2_normalize_rows(rows);
    l2_normalize(q);
  }
  std::vector<Neighbor> all;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    if (r == u || (!dead.empty() && dead[r] != 0)) continue;
    all.push_back({static_cast<NodeId>(r), dot<float>(rows.row(r), q)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.score != b.score ? a.score > b.score : a.node < b.node;
  });
  all.resize(std::min(k, all.size()));
  return all;
}

}  // namespace seqge::serve
