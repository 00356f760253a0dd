// Scalar reference kernels, the NEON implementation (aarch64 baseline
// ISA, so compile-time selected), and the runtime dispatch table.
// The AVX2 implementation lives in simd_avx2.cpp, compiled with
// -mavx2 -mfma only for that translation unit (see CMakeLists.txt);
// SEQGE_SIMD_HAS_AVX2 is defined by the build system iff that TU is
// part of the library.

#include "linalg/simd.hpp"

#include <cmath>

#if defined(__ARM_NEON) && !defined(SEQGE_DISABLE_SIMD)
#include <arm_neon.h>
#define SEQGE_SIMD_USE_NEON 1
#endif

namespace seqge::simd {

// --- scalar reference --------------------------------------------------------
// These are byte-for-byte the loops linalg/kernels.hpp shipped before
// the dispatch layer existed: single float accumulator for dot, double
// accumulator for l2_norm. The SEQGE_DISABLE_SIMD build resolves every
// dispatched call here, which is what makes that build bit-identical
// to the pre-vectorization library.

namespace {

// The OS-ELM context sample loop as a composition of one ISA's dot and
// axpy: the reference order oselm_context_update promises (simd.hpp).
template <float (*Dot)(const float*, const float*, std::size_t) noexcept,
          void (*Axpy)(float, const float*, float*, std::size_t) noexcept>
std::size_t oselm_context_composed(float* const* pos_rows, std::size_t n_pos,
                                   float* const* neg_rows, std::size_t n_neg,
                                   const float* h, const float* ph2,
                                   std::size_t dims, double* errors) noexcept {
  std::size_t k = 0;
  const auto sample = [&](float* row, double t) {
    const double e = t - static_cast<double>(Dot(h, row, dims));
    errors[k++] = e;
    Axpy(static_cast<float>(e), ph2, row, dims);
  };
  for (std::size_t g = 0; g < n_pos; ++g) {
    sample(pos_rows[g], 1.0);
    for (std::size_t j = 0; j < n_neg; ++j) {
      if (neg_rows[j] != pos_rows[g]) sample(neg_rows[j], 0.0);
    }
  }
  return k;
}

}  // namespace

namespace scalar {

float dot(const float* x, const float* y, std::size_t n) noexcept {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void axpy(float a, const float* x, float* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void scale(float a, float* x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] *= a;
}

double l2_norm(const float* x, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return std::sqrt(acc);
}

void dot_batch(const float* rows, std::size_t n, std::size_t dims,
               const float* q, float* scores) noexcept {
  for (std::size_t r = 0; r < n; ++r) {
    scores[r] = dot(rows + r * dims, q, dims);
  }
}

// The training kernels are compositions of the scalar dot/axpy loops
// above, in exactly the sequence the backends used before fusion — the
// fused-vs-unfused model tests rely on that being byte-for-byte true.

void matvec_t(const float* m, std::size_t rows, std::size_t cols,
              const float* v, float* out) noexcept {
  for (std::size_t c = 0; c < cols; ++c) out[c] = 0.0f;
  for (std::size_t r = 0; r < rows; ++r) {
    axpy(v[r], m + r * cols, out, cols);
  }
}

void rank1_update(float* m, std::size_t rows, std::size_t cols, float a,
                  const float* x, const float* y) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    axpy(a * x[r], y, m + r * cols, cols);
  }
}

void matvec_both(const float* m, std::size_t n, const float* v,
                 float* out_mv, float* out_mtv) noexcept {
  dot_batch(m, n, n, v, out_mv);
  matvec_t(m, n, n, v, out_mtv);
}

void rank1_matvec(float* m, std::size_t n, float a, const float* x,
                  const float* y, const float* v, float* out) noexcept {
  rank1_update(m, n, n, a, x, y);
  dot_batch(m, n, n, v, out);
}

void dot_batch_gather(const float* const* rows, std::size_t n,
                      std::size_t dims, const float* q,
                      float* scores) noexcept {
  for (std::size_t i = 0; i < n; ++i) scores[i] = dot(rows[i], q, dims);
}

void axpy_gather(float* const* rows, const float* coeffs, const float* x,
                 std::size_t n, std::size_t dims) noexcept {
  for (std::size_t i = 0; i < n; ++i) axpy(coeffs[i], x, rows[i], dims);
}

std::size_t oselm_context_update(float* const* pos_rows, std::size_t n_pos,
                                 float* const* neg_rows, std::size_t n_neg,
                                 const float* h, const float* ph2,
                                 std::size_t dims, double* errors) noexcept {
  return oselm_context_composed<dot, axpy>(pos_rows, n_pos, neg_rows, n_neg,
                                           h, ph2, dims, errors);
}

void sgns_apply(float* h, float* hgrad, float* const* rows, const float* g,
                float neg_lr, std::size_t n, std::size_t dims) noexcept {
  for (std::size_t d = 0; d < dims; ++d) hgrad[d] = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    axpy(g[i], rows[i], hgrad, dims);
    axpy(neg_lr * g[i], h, rows[i], dims);
  }
  axpy(neg_lr, hgrad, h, dims);
}

std::int32_t dot_i8(const std::int8_t* x, const std::int8_t* y,
                    std::size_t n) noexcept {
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::int32_t>(x[i]) * static_cast<std::int32_t>(y[i]);
  }
  return acc;
}

void dot_i8_batch(const std::int8_t* rows, std::size_t n, std::size_t dims,
                  const std::int8_t* q, std::int32_t* out) noexcept {
  for (std::size_t r = 0; r < n; ++r) {
    out[r] = dot_i8(rows + r * dims, q, dims);
  }
}

}  // namespace scalar

// --- NEON --------------------------------------------------------------------

#if defined(SEQGE_SIMD_USE_NEON)
namespace neon {

// Canonical per-row order: one 4-wide accumulator stepped 4 at a time,
// lanes reduced low-to-high, scalar tail. dot_batch below uses the
// same order per row, so row scores match 1-row calls exactly.
float dot(const float* x, const float* y, std::size_t n) noexcept {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = vfmaq_f32(acc, vld1q_f32(x + i), vld1q_f32(y + i));
  }
  float sum = (vgetq_lane_f32(acc, 0) + vgetq_lane_f32(acc, 1)) +
              (vgetq_lane_f32(acc, 2) + vgetq_lane_f32(acc, 3));
  // One rounding per tail element (scalar fmadd), matching dot_batch's
  // tails bit-for-bit regardless of compiler contraction choices.
  for (; i < n; ++i) sum = std::fmaf(x[i], y[i], sum);
  return sum;
}

void axpy(float a, const float* x, float* y, std::size_t n) noexcept {
  const float32x4_t av = vdupq_n_f32(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), av, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale(float a, float* x, std::size_t n) noexcept {
  const float32x4_t av = vdupq_n_f32(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vmulq_f32(vld1q_f32(x + i), av));
  }
  for (; i < n; ++i) x[i] *= a;
}

double l2_norm(const float* x, std::size_t n) noexcept {
  // Widen each lane pair to double before accumulating — precision
  // parity with the scalar double accumulator.
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    const float64x2_t lo = vcvt_f64_f32(vget_low_f32(v));
    const float64x2_t hi = vcvt_f64_f32(vget_high_f32(v));
    acc0 = vfmaq_f64(acc0, lo, lo);
    acc1 = vfmaq_f64(acc1, hi, hi);
  }
  double sum = vgetq_lane_f64(acc0, 0) + vgetq_lane_f64(acc0, 1) +
               vgetq_lane_f64(acc1, 0) + vgetq_lane_f64(acc1, 1);
  for (; i < n; ++i) {
    sum += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return std::sqrt(sum);
}

void dot_batch(const float* rows, std::size_t n, std::size_t dims,
               const float* q, float* scores) noexcept {
  std::size_t r = 0;
  // Four rows share each load of q; each row keeps its own accumulator
  // in the canonical per-row order.
  for (; r + 4 <= n; r += 4) {
    const float* r0 = rows + (r + 0) * dims;
    const float* r1 = rows + (r + 1) * dims;
    const float* r2 = rows + (r + 2) * dims;
    const float* r3 = rows + (r + 3) * dims;
    float32x4_t a0 = vdupq_n_f32(0.0f), a1 = a0, a2 = a0, a3 = a0;
    std::size_t i = 0;
    for (; i + 4 <= dims; i += 4) {
      const float32x4_t qv = vld1q_f32(q + i);
      a0 = vfmaq_f32(a0, vld1q_f32(r0 + i), qv);
      a1 = vfmaq_f32(a1, vld1q_f32(r1 + i), qv);
      a2 = vfmaq_f32(a2, vld1q_f32(r2 + i), qv);
      a3 = vfmaq_f32(a3, vld1q_f32(r3 + i), qv);
    }
    float s0 = (vgetq_lane_f32(a0, 0) + vgetq_lane_f32(a0, 1)) +
               (vgetq_lane_f32(a0, 2) + vgetq_lane_f32(a0, 3));
    float s1 = (vgetq_lane_f32(a1, 0) + vgetq_lane_f32(a1, 1)) +
               (vgetq_lane_f32(a1, 2) + vgetq_lane_f32(a1, 3));
    float s2 = (vgetq_lane_f32(a2, 0) + vgetq_lane_f32(a2, 1)) +
               (vgetq_lane_f32(a2, 2) + vgetq_lane_f32(a2, 3));
    float s3 = (vgetq_lane_f32(a3, 0) + vgetq_lane_f32(a3, 1)) +
               (vgetq_lane_f32(a3, 2) + vgetq_lane_f32(a3, 3));
    for (; i < dims; ++i) {
      s0 = std::fmaf(r0[i], q[i], s0);
      s1 = std::fmaf(r1[i], q[i], s1);
      s2 = std::fmaf(r2[i], q[i], s2);
      s3 = std::fmaf(r3[i], q[i], s3);
    }
    scores[r + 0] = s0;
    scores[r + 1] = s1;
    scores[r + 2] = s2;
    scores[r + 3] = s3;
  }
  for (; r < n; ++r) scores[r] = dot(rows + r * dims, q, dims);
}

void matvec_t(const float* m, std::size_t rows, std::size_t cols,
              const float* v, float* out) noexcept {
  // Zero-then-accumulate, rows in ascending order: the same per-element
  // FMA chain as calling axpy(v[r], row r, out) row by row (which is
  // exactly what this loop does — the calls inline in this TU).
  for (std::size_t c = 0; c < cols; ++c) out[c] = 0.0f;
  for (std::size_t r = 0; r < rows; ++r) {
    axpy(v[r], m + r * cols, out, cols);
  }
}

void rank1_update(float* m, std::size_t rows, std::size_t cols, float a,
                  const float* x, const float* y) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    axpy(a * x[r], y, m + r * cols, cols);
  }
}

// The fused square-matrix pairs stay compositions on NEON: the calls
// inline in this TU, so fusing further would only re-derive the same
// chains. (The AVX2 TU fuses them for real — one pass over m.)
void matvec_both(const float* m, std::size_t n, const float* v,
                 float* out_mv, float* out_mtv) noexcept {
  dot_batch(m, n, n, v, out_mv);
  matvec_t(m, n, n, v, out_mtv);
}

void rank1_matvec(float* m, std::size_t n, float a, const float* x,
                  const float* y, const float* v, float* out) noexcept {
  rank1_update(m, n, n, a, x, y);
  dot_batch(m, n, n, v, out);
}

void dot_batch_gather(const float* const* rows, std::size_t n,
                      std::size_t dims, const float* q,
                      float* scores) noexcept {
  // Same 4-rows-share-q blocking as dot_batch, per-row canonical order.
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const float* r0 = rows[r + 0];
    const float* r1 = rows[r + 1];
    const float* r2 = rows[r + 2];
    const float* r3 = rows[r + 3];
    float32x4_t a0 = vdupq_n_f32(0.0f), a1 = a0, a2 = a0, a3 = a0;
    std::size_t i = 0;
    for (; i + 4 <= dims; i += 4) {
      const float32x4_t qv = vld1q_f32(q + i);
      a0 = vfmaq_f32(a0, vld1q_f32(r0 + i), qv);
      a1 = vfmaq_f32(a1, vld1q_f32(r1 + i), qv);
      a2 = vfmaq_f32(a2, vld1q_f32(r2 + i), qv);
      a3 = vfmaq_f32(a3, vld1q_f32(r3 + i), qv);
    }
    float s0 = (vgetq_lane_f32(a0, 0) + vgetq_lane_f32(a0, 1)) +
               (vgetq_lane_f32(a0, 2) + vgetq_lane_f32(a0, 3));
    float s1 = (vgetq_lane_f32(a1, 0) + vgetq_lane_f32(a1, 1)) +
               (vgetq_lane_f32(a1, 2) + vgetq_lane_f32(a1, 3));
    float s2 = (vgetq_lane_f32(a2, 0) + vgetq_lane_f32(a2, 1)) +
               (vgetq_lane_f32(a2, 2) + vgetq_lane_f32(a2, 3));
    float s3 = (vgetq_lane_f32(a3, 0) + vgetq_lane_f32(a3, 1)) +
               (vgetq_lane_f32(a3, 2) + vgetq_lane_f32(a3, 3));
    for (; i < dims; ++i) {
      s0 = std::fmaf(r0[i], q[i], s0);
      s1 = std::fmaf(r1[i], q[i], s1);
      s2 = std::fmaf(r2[i], q[i], s2);
      s3 = std::fmaf(r3[i], q[i], s3);
    }
    scores[r + 0] = s0;
    scores[r + 1] = s1;
    scores[r + 2] = s2;
    scores[r + 3] = s3;
  }
  for (; r < n; ++r) scores[r] = dot(rows[r], q, dims);
}

void axpy_gather(float* const* rows, const float* coeffs, const float* x,
                 std::size_t n, std::size_t dims) noexcept {
  for (std::size_t i = 0; i < n; ++i) axpy(coeffs[i], x, rows[i], dims);
}

std::size_t oselm_context_update(float* const* pos_rows, std::size_t n_pos,
                                 float* const* neg_rows, std::size_t n_neg,
                                 const float* h, const float* ph2,
                                 std::size_t dims, double* errors) noexcept {
  return oselm_context_composed<dot, axpy>(pos_rows, n_pos, neg_rows, n_neg,
                                           h, ph2, dims, errors);
}

void sgns_apply(float* h, float* hgrad, float* const* rows, const float* g,
                float neg_lr, std::size_t n, std::size_t dims) noexcept {
  for (std::size_t d = 0; d < dims; ++d) hgrad[d] = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    axpy(g[i], rows[i], hgrad, dims);
    axpy(neg_lr * g[i], h, rows[i], dims);
  }
  axpy(neg_lr, hgrad, h, dims);
}

std::int32_t dot_i8(const std::int8_t* x, const std::int8_t* y,
                    std::size_t n) noexcept {
  int32x4_t acc = vdupq_n_s32(0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t xv = vmovl_s8(vld1_s8(x + i));
    const int16x8_t yv = vmovl_s8(vld1_s8(y + i));
    acc = vmlal_s16(acc, vget_low_s16(xv), vget_low_s16(yv));
    acc = vmlal_s16(acc, vget_high_s16(xv), vget_high_s16(yv));
  }
  std::int32_t sum = vaddvq_s32(acc);
  for (; i < n; ++i) {
    sum += static_cast<std::int32_t>(x[i]) * static_cast<std::int32_t>(y[i]);
  }
  return sum;
}

void dot_i8_batch(const std::int8_t* rows, std::size_t n, std::size_t dims,
                  const std::int8_t* q, std::int32_t* out) noexcept {
  for (std::size_t r = 0; r < n; ++r) {
    out[r] = dot_i8(rows + r * dims, q, dims);
  }
}

}  // namespace neon
#endif  // SEQGE_SIMD_USE_NEON

// --- AVX2 (separate TU; declarations only) -----------------------------------

#if defined(SEQGE_SIMD_HAS_AVX2)
namespace avx2 {
bool supported() noexcept;
float dot(const float* x, const float* y, std::size_t n) noexcept;
void axpy(float a, const float* x, float* y, std::size_t n) noexcept;
void scale(float a, float* x, std::size_t n) noexcept;
double l2_norm(const float* x, std::size_t n) noexcept;
void dot_batch(const float* rows, std::size_t n, std::size_t dims,
               const float* q, float* scores) noexcept;
void matvec_t(const float* m, std::size_t rows, std::size_t cols,
              const float* v, float* out) noexcept;
void rank1_update(float* m, std::size_t rows, std::size_t cols, float a,
                  const float* x, const float* y) noexcept;
void matvec_both(const float* m, std::size_t n, const float* v,
                 float* out_mv, float* out_mtv) noexcept;
void rank1_matvec(float* m, std::size_t n, float a, const float* x,
                  const float* y, const float* v, float* out) noexcept;
void dot_batch_gather(const float* const* rows, std::size_t n,
                      std::size_t dims, const float* q,
                      float* scores) noexcept;
void axpy_gather(float* const* rows, const float* coeffs, const float* x,
                 std::size_t n, std::size_t dims) noexcept;
std::size_t oselm_context_update(float* const* pos_rows, std::size_t n_pos,
                                 float* const* neg_rows, std::size_t n_neg,
                                 const float* h, const float* ph2,
                                 std::size_t dims, double* errors) noexcept;
void sgns_apply(float* h, float* hgrad, float* const* rows, const float* g,
                float neg_lr, std::size_t n, std::size_t dims) noexcept;
std::int32_t dot_i8(const std::int8_t* x, const std::int8_t* y,
                    std::size_t n) noexcept;
void dot_i8_batch(const std::int8_t* rows, std::size_t n, std::size_t dims,
                  const std::int8_t* q, std::int32_t* out) noexcept;
}  // namespace avx2
#endif

// --- dispatch ----------------------------------------------------------------

namespace {

struct Table {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";
  float (*dot)(const float*, const float*, std::size_t) noexcept =
      scalar::dot;
  void (*axpy)(float, const float*, float*, std::size_t) noexcept =
      scalar::axpy;
  void (*scale)(float, float*, std::size_t) noexcept = scalar::scale;
  double (*l2_norm)(const float*, std::size_t) noexcept = scalar::l2_norm;
  void (*dot_batch)(const float*, std::size_t, std::size_t, const float*,
                    float*) noexcept = scalar::dot_batch;
  void (*matvec_t)(const float*, std::size_t, std::size_t, const float*,
                   float*) noexcept = scalar::matvec_t;
  void (*rank1_update)(float*, std::size_t, std::size_t, float, const float*,
                       const float*) noexcept = scalar::rank1_update;
  void (*matvec_both)(const float*, std::size_t, const float*, float*,
                      float*) noexcept = scalar::matvec_both;
  void (*rank1_matvec)(float*, std::size_t, float, const float*, const float*,
                       const float*, float*) noexcept = scalar::rank1_matvec;
  void (*dot_batch_gather)(const float* const*, std::size_t, std::size_t,
                           const float*, float*) noexcept =
      scalar::dot_batch_gather;
  void (*axpy_gather)(float* const*, const float*, const float*, std::size_t,
                      std::size_t) noexcept = scalar::axpy_gather;
  std::size_t (*oselm_context_update)(float* const*, std::size_t,
                                     float* const*, std::size_t,
                                     const float*, const float*, std::size_t,
                                     double*) noexcept =
      scalar::oselm_context_update;
  void (*sgns_apply)(float*, float*, float* const*, const float*, float,
                     std::size_t, std::size_t) noexcept = scalar::sgns_apply;
  std::int32_t (*dot_i8)(const std::int8_t*, const std::int8_t*,
                         std::size_t) noexcept = scalar::dot_i8;
  void (*dot_i8_batch)(const std::int8_t*, std::size_t, std::size_t,
                       const std::int8_t*, std::int32_t*) noexcept =
      scalar::dot_i8_batch;
};

Table select() noexcept {
  Table t;  // scalar defaults
#if defined(SEQGE_SIMD_HAS_AVX2)
  if (avx2::supported()) {
    t.isa = Isa::kAvx2;
    t.name = "avx2";
    t.dot = avx2::dot;
    t.axpy = avx2::axpy;
    t.scale = avx2::scale;
    t.l2_norm = avx2::l2_norm;
    t.dot_batch = avx2::dot_batch;
    t.matvec_t = avx2::matvec_t;
    t.rank1_update = avx2::rank1_update;
    t.matvec_both = avx2::matvec_both;
    t.rank1_matvec = avx2::rank1_matvec;
    t.dot_batch_gather = avx2::dot_batch_gather;
    t.axpy_gather = avx2::axpy_gather;
    t.oselm_context_update = avx2::oselm_context_update;
    t.sgns_apply = avx2::sgns_apply;
    t.dot_i8 = avx2::dot_i8;
    t.dot_i8_batch = avx2::dot_i8_batch;
    return t;
  }
#endif
#if defined(SEQGE_SIMD_USE_NEON)
  t.isa = Isa::kNeon;
  t.name = "neon";
  t.dot = neon::dot;
  t.axpy = neon::axpy;
  t.scale = neon::scale;
  t.l2_norm = neon::l2_norm;
  t.dot_batch = neon::dot_batch;
  t.matvec_t = neon::matvec_t;
  t.rank1_update = neon::rank1_update;
  t.matvec_both = neon::matvec_both;
  t.rank1_matvec = neon::rank1_matvec;
  t.dot_batch_gather = neon::dot_batch_gather;
  t.axpy_gather = neon::axpy_gather;
  t.oselm_context_update = neon::oselm_context_update;
  t.sgns_apply = neon::sgns_apply;
  t.dot_i8 = neon::dot_i8;
  t.dot_i8_batch = neon::dot_i8_batch;
#endif
  return t;
}

const Table& table() noexcept {
  // Resolved once; constant for the process lifetime (determinism per
  // ISA). Thread-safe per C++11 static initialization.
  static const Table t = select();
  return t;
}

}  // namespace

Isa active_isa() noexcept { return table().isa; }
const char* isa_name() noexcept { return table().name; }

float dot(const float* x, const float* y, std::size_t n) noexcept {
  return table().dot(x, y, n);
}
void axpy(float a, const float* x, float* y, std::size_t n) noexcept {
  table().axpy(a, x, y, n);
}
void scale(float a, float* x, std::size_t n) noexcept {
  table().scale(a, x, n);
}
double l2_norm(const float* x, std::size_t n) noexcept {
  return table().l2_norm(x, n);
}
void dot_batch(const float* rows, std::size_t n, std::size_t dims,
               const float* q, float* scores) noexcept {
  table().dot_batch(rows, n, dims, q, scores);
}
void matvec_t(const float* m, std::size_t rows, std::size_t cols,
              const float* v, float* out) noexcept {
  table().matvec_t(m, rows, cols, v, out);
}
void rank1_update(float* m, std::size_t rows, std::size_t cols, float a,
                  const float* x, const float* y) noexcept {
  table().rank1_update(m, rows, cols, a, x, y);
}
void matvec_both(const float* m, std::size_t n, const float* v,
                 float* out_mv, float* out_mtv) noexcept {
  table().matvec_both(m, n, v, out_mv, out_mtv);
}
void rank1_matvec(float* m, std::size_t n, float a, const float* x,
                  const float* y, const float* v, float* out) noexcept {
  table().rank1_matvec(m, n, a, x, y, v, out);
}
void dot_batch_gather(const float* const* rows, std::size_t n,
                      std::size_t dims, const float* q,
                      float* scores) noexcept {
  table().dot_batch_gather(rows, n, dims, q, scores);
}
void axpy_gather(float* const* rows, const float* coeffs, const float* x,
                 std::size_t n, std::size_t dims) noexcept {
  table().axpy_gather(rows, coeffs, x, n, dims);
}
std::size_t oselm_context_update(float* const* pos_rows, std::size_t n_pos,
                                 float* const* neg_rows, std::size_t n_neg,
                                 const float* h, const float* ph2,
                                 std::size_t dims, double* errors) noexcept {
  return table().oselm_context_update(pos_rows, n_pos, neg_rows, n_neg, h,
                                      ph2, dims, errors);
}
void sgns_apply(float* h, float* hgrad, float* const* rows, const float* g,
                float neg_lr, std::size_t n, std::size_t dims) noexcept {
  table().sgns_apply(h, hgrad, rows, g, neg_lr, n, dims);
}
std::int32_t dot_i8(const std::int8_t* x, const std::int8_t* y,
                    std::size_t n) noexcept {
  return table().dot_i8(x, y, n);
}
void dot_i8_batch(const std::int8_t* rows, std::size_t n, std::size_t dims,
                  const std::int8_t* q, std::int32_t* out) noexcept {
  table().dot_i8_batch(rows, n, dims, q, out);
}

}  // namespace seqge::simd
