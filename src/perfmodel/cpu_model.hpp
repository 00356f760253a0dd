#pragma once
// CPU latency models for the two platforms the paper compares against
// (ARM Cortex-A53 @1.2 GHz, Table 3; Intel i7-11700 @2.5 GHz, Table 4).
// Neither CPU is available here, so per-walk training latency is modeled
// as a quadratic in the embedding dimension fitted exactly through the
// paper's three measured points per (platform, model). The quadratic
// term captures the cache-pressure growth visible in the paper's own
// numbers (the original model's time grows super-linearly in N even
// though its op count is linear in N). Use predict_ms() to interpolate/
// extrapolate to other dims.

#include <array>
#include <cstddef>
#include <string>

namespace seqge::perfmodel {

/// t(N) = c0 + c1*N + c2*N^2, fitted through three (N, t) anchors.
class QuadraticLatencyModel {
 public:
  /// Exact fit through (n0,t0), (n1,t1), (n2,t2); n's must be distinct.
  static QuadraticLatencyModel fit3(double n0, double t0, double n1,
                                    double t1, double n2, double t2);

  [[nodiscard]] double predict_ms(std::size_t dims) const noexcept {
    const auto n = static_cast<double>(dims);
    return c_[0] + c_[1] * n + c_[2] * n * n;
  }

  [[nodiscard]] const std::array<double, 3>& coefficients() const noexcept {
    return c_;
  }

 private:
  std::array<double, 3> c_{};
};

struct CpuLatencyModel {
  std::string platform;
  std::string model;  // "original" or "proposed"
  QuadraticLatencyModel latency;

  [[nodiscard]] double predict_ms(std::size_t dims) const noexcept {
    return latency.predict_ms(dims);
  }
};

/// Table 3 anchors (per-walk training time, ms, dims 32/64/96).
[[nodiscard]] CpuLatencyModel a53_original_model();
[[nodiscard]] CpuLatencyModel a53_proposed_model();

/// Table 4 anchors.
[[nodiscard]] CpuLatencyModel i7_original_model();
[[nodiscard]] CpuLatencyModel i7_proposed_model();

}  // namespace seqge::perfmodel
