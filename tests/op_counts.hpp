#pragma once
// Exact per-walk operation counts for each training algorithm — the
// platform-independent half of the performance model, kept beside the
// tests that use it: test_perfmodel.cpp audits these formulas against
// the instrumented implementations, and test_fpga.cpp checks the
// simulated core's op counts against them, so the speedup analysis in
// Tables 3/4 rests on verified op counts rather than hand-waving.

#include <cstdint>

namespace seqge::perfmodel {

struct WalkShape {
  std::size_t dims = 32;              ///< N
  std::size_t window = 8;             ///< w
  std::size_t negative_samples = 10;  ///< ns
  std::size_t walk_length = 80;       ///< l

  [[nodiscard]] constexpr std::size_t contexts() const noexcept {
    return walk_length >= window ? walk_length - window + 1 : 0;
  }
  [[nodiscard]] constexpr std::size_t samples_per_context() const noexcept {
    return (window - 1) * (1 + negative_samples);
  }
};

struct OpCounts {
  std::uint64_t macs = 0;         ///< multiply-accumulate operations
  std::uint64_t row_touches = 0;  ///< random weight-row accesses (cache)
};

/// Original skip-gram + negative sampling + SGD. Per sample: score dot
/// (N) + h-grad axpy (N) + output-row axpy (N); per positive one final
/// input-row axpy (N).
[[nodiscard]] constexpr OpCounts sgns_walk_ops(
    const WalkShape& s) noexcept {
  const std::uint64_t n = s.dims;
  const std::uint64_t per_positive =
      (1 + s.negative_samples) * 3 * n + n;
  const std::uint64_t per_context = (s.window - 1) * per_positive;
  OpCounts out;
  out.macs = s.contexts() * per_context;
  out.row_touches =
      s.contexts() * ((s.window - 1) * (1 + s.negative_samples) + 1);
  return out;
}

/// Proposed model, Algorithm 1. Per context: H (N) + two P matvecs
/// (2N^2) + hph (N) + rank-1 P update (N^2) + ph2 recompute (N^2) +
/// per-sample dot+axpy (2N each).
[[nodiscard]] constexpr OpCounts oselm_walk_ops(
    const WalkShape& s) noexcept {
  const std::uint64_t n = s.dims;
  const std::uint64_t per_context =
      4 * n * n + 2 * n + 2 * n * s.samples_per_context();
  OpCounts out;
  out.macs = s.contexts() * per_context;
  out.row_touches = s.contexts() * (s.samples_per_context() + 1);
  return out;
}

/// Proposed model, Algorithm 2 (dataflow). One fewer N^2 matvec per
/// context (P_i H^T comes from the closed form ph*k); plus the per-walk
/// commit of delta-P (N^2) and the touched beta rows.
[[nodiscard]] constexpr OpCounts oselm_dataflow_walk_ops(
    const WalkShape& s) noexcept {
  const std::uint64_t n = s.dims;
  const std::uint64_t per_context =
      3 * n * n + 3 * n + 2 * n * s.samples_per_context();
  OpCounts out;
  out.macs = s.contexts() * per_context + n * n;  // + commit
  out.row_touches = s.contexts() * (s.samples_per_context() + 1) +
                    (s.walk_length + s.negative_samples);
  return out;
}

}  // namespace seqge::perfmodel
