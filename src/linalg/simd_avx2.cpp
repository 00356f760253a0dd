// AVX2+FMA kernels. This TU (and only this TU) is compiled with
// -mavx2 -mfma on x86-64 builds; everything here is self-guarded with
// __AVX2__ so the file compiles to nothing if the flags are absent.
// Selection happens at runtime in simd.cpp via avx2::supported(), so
// the binary still runs on pre-AVX2 machines.
//
// Accumulation-order contract (see simd.hpp): dot uses ONE 8-wide
// accumulator stepped 8 floats at a time, a fixed-order horizontal
// reduction, and a scalar tail; dot_batch applies exactly that order
// to each row, whatever its cross-row blocking. l2_norm widens every
// lane to double before accumulating, matching the scalar baseline's
// double accumulator precision.

#include "linalg/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <type_traits>

namespace seqge::simd::avx2 {

namespace {

// Fixed-order horizontal sum: (lo128 + hi128), then pairwise within
// the 128-bit half — same tree for every call site so row scores are
// reproducible.
inline float hsum256(__m256 v) noexcept {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);            // [a0+a4, a1+a5, a2+a6, a3+a7]
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));   // [a0+a4+a2+a6, a1+a5+a3+a7, ..]
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

// hsum256 of eight vectors at once, same tree and operand order per
// vector, so each of the eight sums is bit-identical to hsum256(v[k]);
// returns them in order v[0]..v[7].
inline __m256 hsum256x8(const __m256 (&v)[8]) noexcept {
  // lo128 + hi128 of each vector, two vectors per register.
  __m256 t[4];
  for (int p = 0; p < 4; ++p) {
    t[p] = _mm256_add_ps(_mm256_permute2f128_ps(v[2 * p], v[2 * p + 1], 0x20),
                         _mm256_permute2f128_ps(v[2 * p], v[2 * p + 1], 0x31));
  }
  // [s0+s2, s1+s3] of each half ...
  const __m256 a = _mm256_add_ps(_mm256_shuffle_ps(t[0], t[1], 0x44),
                                 _mm256_shuffle_ps(t[0], t[1], 0xEE));
  const __m256 b = _mm256_add_ps(_mm256_shuffle_ps(t[2], t[3], 0x44),
                                 _mm256_shuffle_ps(t[2], t[3], 0xEE));
  // ... then their sum: lanes hold v0 v2 v4 v6 | v1 v3 v5 v7.
  const __m256 sums = _mm256_add_ps(_mm256_shuffle_ps(a, b, 0x88),
                                    _mm256_shuffle_ps(a, b, 0xDD));
  return _mm256_permutevar8x32_ps(sums,
                                  _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
}

// hsum256 of four vectors at once, same tree and operand order per
// vector, so out[k] is bit-identical to hsum256 of the k-th argument.
inline void hsum256x4(__m256 a, __m256 b, __m256 c, __m256 d,
                      float* out) noexcept {
  // lo128 + hi128 of each vector: [a | b] and [c | d].
  const __m256 ab = _mm256_add_ps(_mm256_permute2f128_ps(a, b, 0x20),
                                  _mm256_permute2f128_ps(a, b, 0x31));
  const __m256 cd = _mm256_add_ps(_mm256_permute2f128_ps(c, d, 0x20),
                                  _mm256_permute2f128_ps(c, d, 0x31));
  // [s0+s2, s1+s3] of each, then their sum: lanes hold a c .. | b d ..
  const __m256 u = _mm256_add_ps(_mm256_shuffle_ps(ab, cd, 0x44),
                                 _mm256_shuffle_ps(ab, cd, 0xEE));
  const __m256 t = _mm256_add_ps(_mm256_shuffle_ps(u, u, 0x88),
                                 _mm256_shuffle_ps(u, u, 0xDD));
  const __m128 lo = _mm256_castps256_ps128(t);
  const __m128 hi = _mm256_extractf128_ps(t, 1);
  out[0] = _mm_cvtss_f32(lo);
  out[1] = _mm_cvtss_f32(hi);
  out[2] = _mm_cvtss_f32(_mm_shuffle_ps(lo, lo, 0x55));
  out[3] = _mm_cvtss_f32(_mm_shuffle_ps(hi, hi, 0x55));
}

// Calls f(std::integral_constant<std::size_t, NV>{}) with NV = n / 8
// when 8 <= n < 40 — rows of one to four full vectors, whose loops the
// fused training kernels unroll and keep in registers — and NV = 0
// (the looping form for any n) otherwise.
template <typename F>
void with_register_vectors(std::size_t n, F&& f) {
  switch (n >= 8 && n < 40 ? n / 8 : 0) {
    case 1:
      return f(std::integral_constant<std::size_t, 1>{});
    case 2:
      return f(std::integral_constant<std::size_t, 2>{});
    case 3:
      return f(std::integral_constant<std::size_t, 3>{});
    case 4:
      return f(std::integral_constant<std::size_t, 4>{});
    default:
      return f(std::integral_constant<std::size_t, 0>{});
  }
}

inline double hsum256d(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d s = _mm_add_pd(lo, hi);
  s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
  return _mm_cvtsd_f64(s);
}

}  // namespace

bool supported() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

float dot(const float* x, const float* y, std::size_t n) noexcept {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i), acc);
  }
  float sum = hsum256(acc);
  // std::fmaf pins the tail to one rounding per element (a single
  // vfmadd), so dot_batch's tails below are bit-identical to this one
  // no matter how the compiler contracts or SLP-vectorizes either loop.
  for (; i < n; ++i) sum = std::fmaf(x[i], y[i], sum);
  return sum;
}

void axpy(float a, const float* x, float* y, std::size_t n) noexcept {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r =
        _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, r);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale(float a, float* x, std::size_t n) noexcept {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), av));
  }
  for (; i < n; ++i) x[i] *= a;
}

double l2_norm(const float* x, std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  double sum = hsum256d(acc0) + hsum256d(acc1);
  for (; i < n; ++i) {
    sum += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return std::sqrt(sum);
}

void dot_batch(const float* rows, std::size_t n, std::size_t dims,
               const float* q, float* scores) noexcept {
  std::size_t r = 0;
  // Eight rows per pass share each load of q, and their horizontal sums
  // run as one transposed tree (hsum256x8). Each row keeps its own
  // single 8-wide accumulator, hsum256's reduction and its own scalar
  // tail — the canonical per-row order — so scores match 1-row dot()
  // calls exactly.
  for (; r + 8 <= n; r += 8) {
    const float* x = rows + r * dims;
    __m256 acc[8];
    for (auto& a : acc) a = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= dims; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      for (std::size_t k = 0; k < 8; ++k) {
        acc[k] = _mm256_fmadd_ps(_mm256_loadu_ps(x + k * dims + i), qv,
                                 acc[k]);
      }
    }
    _mm256_storeu_ps(scores + r, hsum256x8(acc));
    // No tail: skip the fix-up loop, whose reloads of the lanes just
    // stored cost ~40% of the batch at 32 dims.
    if (i == dims) continue;
    for (std::size_t k = 0; k < 8; ++k) {
      float s = scores[r + k];
      for (std::size_t t = i; t < dims; ++t) {
        s = std::fmaf(x[k * dims + t], q[t], s);
      }
      scores[r + k] = s;
    }
  }
  for (; r < n; ++r) scores[r] = dot(rows + r * dims, q, dims);
}

// --- fused training kernels --------------------------------------------------
// Bit-identity contract (simd.hpp): each kernel reproduces the float
// sequence of the per-row avx2 calls it replaces. Column-blocked loops
// keep accumulators in registers, but every output element's chain of
// FMAs runs over rows/samples in the same ascending order with the
// same one-rounding-per-step arithmetic, so the results are the same
// bits. Scalar tails are written in the same expression form as
// axpy/dot tails in this TU so the compiler contracts them identically.

void matvec_t(const float* m, std::size_t rows, std::size_t cols,
              const float* v, float* out) noexcept {
  std::size_t c = 0;
  // 32 columns per pass: one v[r] broadcast feeds four FMAs.
  for (; c + 32 <= cols; c += 32) {
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    for (std::size_t r = 0; r < rows; ++r) {
      const __m256 vr = _mm256_set1_ps(v[r]);
      const float* row = m + r * cols + c;
      a0 = _mm256_fmadd_ps(vr, _mm256_loadu_ps(row + 0), a0);
      a1 = _mm256_fmadd_ps(vr, _mm256_loadu_ps(row + 8), a1);
      a2 = _mm256_fmadd_ps(vr, _mm256_loadu_ps(row + 16), a2);
      a3 = _mm256_fmadd_ps(vr, _mm256_loadu_ps(row + 24), a3);
    }
    _mm256_storeu_ps(out + c + 0, a0);
    _mm256_storeu_ps(out + c + 8, a1);
    _mm256_storeu_ps(out + c + 16, a2);
    _mm256_storeu_ps(out + c + 24, a3);
  }
  for (; c + 8 <= cols; c += 8) {
    __m256 a0 = _mm256_setzero_ps();
    for (std::size_t r = 0; r < rows; ++r) {
      a0 = _mm256_fmadd_ps(_mm256_set1_ps(v[r]),
                           _mm256_loadu_ps(m + r * cols + c), a0);
    }
    _mm256_storeu_ps(out + c, a0);
  }
  for (; c < cols; ++c) {
    out[c] = 0.0f;
    for (std::size_t r = 0; r < rows; ++r) {
      out[c] += v[r] * m[r * cols + c];
    }
  }
}

void rank1_update(float* m, std::size_t rows, std::size_t cols, float a,
                  const float* x, const float* y) noexcept {
  std::size_t r = 0;
  // Four rows per pass share each load of y. Per-row coefficients are
  // rounded once up front, exactly like axpy(a * x[r], y, row).
  for (; r + 4 <= rows; r += 4) {
    float* m0 = m + (r + 0) * cols;
    float* m1 = m + (r + 1) * cols;
    float* m2 = m + (r + 2) * cols;
    float* m3 = m + (r + 3) * cols;
    const float c0 = a * x[r + 0];
    const float c1 = a * x[r + 1];
    const float c2 = a * x[r + 2];
    const float c3 = a * x[r + 3];
    const __m256 cv0 = _mm256_set1_ps(c0);
    const __m256 cv1 = _mm256_set1_ps(c1);
    const __m256 cv2 = _mm256_set1_ps(c2);
    const __m256 cv3 = _mm256_set1_ps(c3);
    std::size_t i = 0;
    for (; i + 8 <= cols; i += 8) {
      const __m256 yv = _mm256_loadu_ps(y + i);
      _mm256_storeu_ps(m0 + i,
                       _mm256_fmadd_ps(cv0, yv, _mm256_loadu_ps(m0 + i)));
      _mm256_storeu_ps(m1 + i,
                       _mm256_fmadd_ps(cv1, yv, _mm256_loadu_ps(m1 + i)));
      _mm256_storeu_ps(m2 + i,
                       _mm256_fmadd_ps(cv2, yv, _mm256_loadu_ps(m2 + i)));
      _mm256_storeu_ps(m3 + i,
                       _mm256_fmadd_ps(cv3, yv, _mm256_loadu_ps(m3 + i)));
    }
    for (; i < cols; ++i) {
      m0[i] += c0 * y[i];
      m1[i] += c1 * y[i];
      m2[i] += c2 * y[i];
      m3[i] += c3 * y[i];
    }
  }
  for (; r < rows; ++r) {
    axpy(a * x[r], y, m + r * cols, cols);
  }
}

namespace {

// matvec_both for NV = n / 8 full column vectors (1 to 4): the
// same quad-row pass as the general loop, but the M^T v sums of those
// columns stay in NV registers for the whole pass instead of making a
// load-FMA-store round trip per quad. Columns past the last full
// vector, and rows past the last quad, take the general loop's chains.
template <std::size_t NV>
void matvec_both_small(const float* m, std::size_t n, const float* v,
                       float* out_mv, float* out_mtv) noexcept {
  __m256 q[NV];
  __m256 t[NV];
  for (std::size_t k = 0; k < NV; ++k) {
    q[k] = _mm256_loadu_ps(v + 8 * k);
    t[k] = _mm256_setzero_ps();
  }
  for (std::size_t c = 8 * NV; c < n; ++c) out_mtv[c] = 0.0f;
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const float* r0 = m + (r + 0) * n;
    const float* r1 = m + (r + 1) * n;
    const float* r2 = m + (r + 2) * n;
    const float* r3 = m + (r + 3) * n;
    const __m256 vr0 = _mm256_set1_ps(v[r + 0]);
    const __m256 vr1 = _mm256_set1_ps(v[r + 1]);
    const __m256 vr2 = _mm256_set1_ps(v[r + 2]);
    const __m256 vr3 = _mm256_set1_ps(v[r + 3]);
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    for (std::size_t k = 0; k < NV; ++k) {
      const __m256 m0 = _mm256_loadu_ps(r0 + 8 * k);
      const __m256 m1 = _mm256_loadu_ps(r1 + 8 * k);
      const __m256 m2 = _mm256_loadu_ps(r2 + 8 * k);
      const __m256 m3 = _mm256_loadu_ps(r3 + 8 * k);
      a0 = _mm256_fmadd_ps(m0, q[k], a0);
      a1 = _mm256_fmadd_ps(m1, q[k], a1);
      a2 = _mm256_fmadd_ps(m2, q[k], a2);
      a3 = _mm256_fmadd_ps(m3, q[k], a3);
      t[k] = _mm256_fmadd_ps(vr0, m0, t[k]);
      t[k] = _mm256_fmadd_ps(vr1, m1, t[k]);
      t[k] = _mm256_fmadd_ps(vr2, m2, t[k]);
      t[k] = _mm256_fmadd_ps(vr3, m3, t[k]);
    }
    hsum256x4(a0, a1, a2, a3, out_mv + r);
    for (std::size_t i = 8 * NV; i < n; ++i) {
      out_mv[r + 0] = std::fmaf(r0[i], v[i], out_mv[r + 0]);
      out_mv[r + 1] = std::fmaf(r1[i], v[i], out_mv[r + 1]);
      out_mv[r + 2] = std::fmaf(r2[i], v[i], out_mv[r + 2]);
      out_mv[r + 3] = std::fmaf(r3[i], v[i], out_mv[r + 3]);
      out_mtv[i] += v[r + 0] * r0[i];
      out_mtv[i] += v[r + 1] * r1[i];
      out_mtv[i] += v[r + 2] * r2[i];
      out_mtv[i] += v[r + 3] * r3[i];
    }
  }
  for (; r < n; ++r) {
    const float* row = m + r * n;
    const __m256 vr = _mm256_set1_ps(v[r]);
    for (std::size_t k = 0; k < NV; ++k) {
      t[k] = _mm256_fmadd_ps(vr, _mm256_loadu_ps(row + 8 * k), t[k]);
    }
    for (std::size_t i = 8 * NV; i < n; ++i) out_mtv[i] += v[r] * row[i];
    out_mv[r] = dot(row, v, n);
  }
  for (std::size_t k = 0; k < NV; ++k) {
    _mm256_storeu_ps(out_mtv + 8 * k, t[k]);
  }
}

// matvec_both for any n: the M^T v sums make a load-FMA-store round
// trip per quad of rows. Per element the chain still runs rows in
// ascending order, one rounding per step, so it matches matvec_t.
void matvec_both_loop(const float* m, std::size_t n, const float* v,
                      float* out_mv, float* out_mtv) noexcept {
  for (std::size_t c = 0; c < n; ++c) out_mtv[c] = 0.0f;
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const float* r0 = m + (r + 0) * n;
    const float* r1 = m + (r + 1) * n;
    const float* r2 = m + (r + 2) * n;
    const float* r3 = m + (r + 3) * n;
    const __m256 vr0 = _mm256_set1_ps(v[r + 0]);
    const __m256 vr1 = _mm256_set1_ps(v[r + 1]);
    const __m256 vr2 = _mm256_set1_ps(v[r + 2]);
    const __m256 vr3 = _mm256_set1_ps(v[r + 3]);
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    std::size_t i = 0;
    // Two column blocks per step: the two out_mtv chains are
    // independent, which hides the 4-deep FMA latency of each; the dot
    // accumulators still take their blocks in ascending order (one
    // serial chain per row — the canonical order — regardless of the
    // unroll).
    for (; i + 16 <= n; i += 16) {
      const __m256 qa = _mm256_loadu_ps(v + i);
      const __m256 qb = _mm256_loadu_ps(v + i + 8);
      const __m256 m0a = _mm256_loadu_ps(r0 + i);
      const __m256 m0b = _mm256_loadu_ps(r0 + i + 8);
      const __m256 m1a = _mm256_loadu_ps(r1 + i);
      const __m256 m1b = _mm256_loadu_ps(r1 + i + 8);
      const __m256 m2a = _mm256_loadu_ps(r2 + i);
      const __m256 m2b = _mm256_loadu_ps(r2 + i + 8);
      const __m256 m3a = _mm256_loadu_ps(r3 + i);
      const __m256 m3b = _mm256_loadu_ps(r3 + i + 8);
      a0 = _mm256_fmadd_ps(m0a, qa, a0);
      a0 = _mm256_fmadd_ps(m0b, qb, a0);
      a1 = _mm256_fmadd_ps(m1a, qa, a1);
      a1 = _mm256_fmadd_ps(m1b, qb, a1);
      a2 = _mm256_fmadd_ps(m2a, qa, a2);
      a2 = _mm256_fmadd_ps(m2b, qb, a2);
      a3 = _mm256_fmadd_ps(m3a, qa, a3);
      a3 = _mm256_fmadd_ps(m3b, qb, a3);
      __m256 ta = _mm256_loadu_ps(out_mtv + i);
      __m256 tb = _mm256_loadu_ps(out_mtv + i + 8);
      ta = _mm256_fmadd_ps(vr0, m0a, ta);
      tb = _mm256_fmadd_ps(vr0, m0b, tb);
      ta = _mm256_fmadd_ps(vr1, m1a, ta);
      tb = _mm256_fmadd_ps(vr1, m1b, tb);
      ta = _mm256_fmadd_ps(vr2, m2a, ta);
      tb = _mm256_fmadd_ps(vr2, m2b, tb);
      ta = _mm256_fmadd_ps(vr3, m3a, ta);
      tb = _mm256_fmadd_ps(vr3, m3b, tb);
      _mm256_storeu_ps(out_mtv + i, ta);
      _mm256_storeu_ps(out_mtv + i + 8, tb);
    }
    for (; i + 8 <= n; i += 8) {
      const __m256 qv = _mm256_loadu_ps(v + i);
      const __m256 m0 = _mm256_loadu_ps(r0 + i);
      const __m256 m1 = _mm256_loadu_ps(r1 + i);
      const __m256 m2 = _mm256_loadu_ps(r2 + i);
      const __m256 m3 = _mm256_loadu_ps(r3 + i);
      a0 = _mm256_fmadd_ps(m0, qv, a0);
      a1 = _mm256_fmadd_ps(m1, qv, a1);
      a2 = _mm256_fmadd_ps(m2, qv, a2);
      a3 = _mm256_fmadd_ps(m3, qv, a3);
      __m256 t = _mm256_loadu_ps(out_mtv + i);
      t = _mm256_fmadd_ps(vr0, m0, t);
      t = _mm256_fmadd_ps(vr1, m1, t);
      t = _mm256_fmadd_ps(vr2, m2, t);
      t = _mm256_fmadd_ps(vr3, m3, t);
      _mm256_storeu_ps(out_mtv + i, t);
    }
    float s0 = hsum256(a0);
    float s1 = hsum256(a1);
    float s2 = hsum256(a2);
    float s3 = hsum256(a3);
    for (; i < n; ++i) {
      s0 = std::fmaf(r0[i], v[i], s0);
      s1 = std::fmaf(r1[i], v[i], s1);
      s2 = std::fmaf(r2[i], v[i], s2);
      s3 = std::fmaf(r3[i], v[i], s3);
      out_mtv[i] += v[r + 0] * r0[i];
      out_mtv[i] += v[r + 1] * r1[i];
      out_mtv[i] += v[r + 2] * r2[i];
      out_mtv[i] += v[r + 3] * r3[i];
    }
    out_mv[r + 0] = s0;
    out_mv[r + 1] = s1;
    out_mv[r + 2] = s2;
    out_mv[r + 3] = s3;
  }
  for (; r < n; ++r) {
    const float* row = m + r * n;
    out_mv[r] = dot(row, v, n);
    axpy(v[r], row, out_mtv, n);
  }
}

}  // namespace

void matvec_both(const float* m, std::size_t n, const float* v,
                 float* out_mv, float* out_mtv) noexcept {
  // One pass over the square matrix produces both products: four rows
  // per quad share each load of v; each m-row block feeds that row's
  // dot accumulator (canonical per-row order) AND the M^T v
  // accumulator, in registers at the training dims. Both outputs match
  // separate dot_batch + matvec_t calls bit for bit.
  with_register_vectors(n, [&](auto nv) {
    if constexpr (nv() == 0) {
      matvec_both_loop(m, n, v, out_mv, out_mtv);
    } else {
      matvec_both_small<nv()>(m, n, v, out_mv, out_mtv);
    }
  });
}

namespace {

// rank1_matvec over quads of rows; NV > 0 is n / 8 known at compile
// time (the block loop fully unrolled), NV == 0 loops over any n.
template <std::size_t NV>
void rank1_matvec_rows(float* m, std::size_t n, float a, const float* x,
                       const float* y, const float* v, float* out) noexcept {
  const std::size_t nv = NV == 0 ? n / 8 : NV;
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    float* m0 = m + (r + 0) * n;
    float* m1 = m + (r + 1) * n;
    float* m2 = m + (r + 2) * n;
    float* m3 = m + (r + 3) * n;
    const float c0 = a * x[r + 0];
    const float c1 = a * x[r + 1];
    const float c2 = a * x[r + 2];
    const float c3 = a * x[r + 3];
    const __m256 cv0 = _mm256_set1_ps(c0);
    const __m256 cv1 = _mm256_set1_ps(c1);
    const __m256 cv2 = _mm256_set1_ps(c2);
    const __m256 cv3 = _mm256_set1_ps(c3);
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    for (std::size_t k = 0; k < nv; ++k) {
      const std::size_t i = 8 * k;
      const __m256 yv = _mm256_loadu_ps(y + i);
      const __m256 vv = _mm256_loadu_ps(v + i);
      const __m256 n0 = _mm256_fmadd_ps(cv0, yv, _mm256_loadu_ps(m0 + i));
      const __m256 n1 = _mm256_fmadd_ps(cv1, yv, _mm256_loadu_ps(m1 + i));
      const __m256 n2 = _mm256_fmadd_ps(cv2, yv, _mm256_loadu_ps(m2 + i));
      const __m256 n3 = _mm256_fmadd_ps(cv3, yv, _mm256_loadu_ps(m3 + i));
      _mm256_storeu_ps(m0 + i, n0);
      _mm256_storeu_ps(m1 + i, n1);
      _mm256_storeu_ps(m2 + i, n2);
      _mm256_storeu_ps(m3 + i, n3);
      a0 = _mm256_fmadd_ps(n0, vv, a0);
      a1 = _mm256_fmadd_ps(n1, vv, a1);
      a2 = _mm256_fmadd_ps(n2, vv, a2);
      a3 = _mm256_fmadd_ps(n3, vv, a3);
    }
    hsum256x4(a0, a1, a2, a3, out + r);
    for (std::size_t i = 8 * nv; i < n; ++i) {
      m0[i] += c0 * y[i];
      m1[i] += c1 * y[i];
      m2[i] += c2 * y[i];
      m3[i] += c3 * y[i];
      out[r + 0] = std::fmaf(m0[i], v[i], out[r + 0]);
      out[r + 1] = std::fmaf(m1[i], v[i], out[r + 1]);
      out[r + 2] = std::fmaf(m2[i], v[i], out[r + 2]);
      out[r + 3] = std::fmaf(m3[i], v[i], out[r + 3]);
    }
  }
  for (; r < n; ++r) {
    float* row = m + r * n;
    axpy(a * x[r], y, row, n);
    out[r] = dot(row, v, n);
  }
}

}  // namespace

void rank1_matvec(float* m, std::size_t n, float a, const float* x,
                  const float* y, const float* v, float* out) noexcept {
  // One pass over the square matrix for update + re-score: per quad of
  // rows the freshly updated block feeds the dot accumulator directly,
  // so each row is read and written once instead of twice. Coefficients
  // round once up front (rank1_update's contract); each dot follows the
  // canonical per-row order over the updated values — bit-identical to
  // rank1_update followed by dot_batch.
  with_register_vectors(n, [&](auto nv) {
    rank1_matvec_rows<nv()>(m, n, a, x, y, v, out);
  });
}

void dot_batch_gather(const float* const* rows, std::size_t n,
                      std::size_t dims, const float* q,
                      float* scores) noexcept {
  // dot_batch's blocking over a gather list: four rows per pass share
  // each load of q, each row in the canonical per-row order.
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const float* r0 = rows[r + 0];
    const float* r1 = rows[r + 1];
    const float* r2 = rows[r + 2];
    const float* r3 = rows[r + 3];
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= dims; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      a0 = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + i), qv, a0);
      a1 = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + i), qv, a1);
      a2 = _mm256_fmadd_ps(_mm256_loadu_ps(r2 + i), qv, a2);
      a3 = _mm256_fmadd_ps(_mm256_loadu_ps(r3 + i), qv, a3);
    }
    float s0 = hsum256(a0);
    float s1 = hsum256(a1);
    float s2 = hsum256(a2);
    float s3 = hsum256(a3);
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
  // Four rows per pass share each load of x. Duplicate row pointers in
  // a quad would lose updates (all four pre-values load before any
  // store) — callers guarantee distinct rows (simd.hpp contract).
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    float* r0 = rows[r + 0];
    float* r1 = rows[r + 1];
    float* r2 = rows[r + 2];
    float* r3 = rows[r + 3];
    const float c0 = coeffs[r + 0];
    const float c1 = coeffs[r + 1];
    const float c2 = coeffs[r + 2];
    const float c3 = coeffs[r + 3];
    const __m256 cv0 = _mm256_set1_ps(c0);
    const __m256 cv1 = _mm256_set1_ps(c1);
    const __m256 cv2 = _mm256_set1_ps(c2);
    const __m256 cv3 = _mm256_set1_ps(c3);
    std::size_t i = 0;
    for (; i + 8 <= dims; i += 8) {
      const __m256 xv = _mm256_loadu_ps(x + i);
      _mm256_storeu_ps(r0 + i,
                       _mm256_fmadd_ps(cv0, xv, _mm256_loadu_ps(r0 + i)));
      _mm256_storeu_ps(r1 + i,
                       _mm256_fmadd_ps(cv1, xv, _mm256_loadu_ps(r1 + i)));
      _mm256_storeu_ps(r2 + i,
                       _mm256_fmadd_ps(cv2, xv, _mm256_loadu_ps(r2 + i)));
      _mm256_storeu_ps(r3 + i,
                       _mm256_fmadd_ps(cv3, xv, _mm256_loadu_ps(r3 + i)));
    }
    for (; i < dims; ++i) {
      r0[i] += c0 * x[i];
      r1[i] += c1 * x[i];
      r2[i] += c2 * x[i];
      r3[i] += c3 * x[i];
    }
  }
  for (; r < n; ++r) axpy(coeffs[r], x, rows[r], dims);
}

namespace {

// hsum256 of two vectors at once, same tree and operand order per
// vector (the two 128-bit halves added, then the in-lane pairs), so
// each sum is bit-identical to hsum256 of its vector.
inline void hsum256x2(__m256 a, __m256 b, float& sa, float& sb) noexcept {
  __m256 s = _mm256_add_ps(_mm256_permute2f128_ps(a, b, 0x20),
                           _mm256_permute2f128_ps(a, b, 0x31));
  s = _mm256_add_ps(s, _mm256_shuffle_ps(s, s, 0xEE));
  s = _mm256_add_ps(s, _mm256_shuffle_ps(s, s, 0x55));
  sa = _mm256_cvtss_f32(s);
  sb = _mm_cvtss_f32(_mm256_extractf128_ps(s, 1));
}

// One OS-ELM sample: dot() then axpy(), as the per-sample path calls
// them.
inline void oselm_sample(float* row, double t, const float* h,
                         const float* ph2, std::size_t dims,
                         double* err) noexcept {
  const double e = t - static_cast<double>(dot(h, row, dims));
  *err = e;
  axpy(static_cast<float>(e), ph2, row, dims);
}

// Two samples on distinct rows: neither score reads the other's
// update, so the two dot chains and the two axpys interleave. Each row
// keeps dot()'s and axpy()'s own order (operands as in those calls).
// NV > 0 is dims / 8 known at compile time: the rows' full vectors stay
// in registers from the dots to the updates. NV == 0 loops over any
// dims and reloads them.
template <std::size_t NV>
inline void oselm_sample_pair(float* a, double ta, float* b, double tb,
                              const float* h, const float* ph2,
                              std::size_t dims, double* err) noexcept {
  constexpr std::size_t kHeld = NV == 0 ? 1 : NV;
  const std::size_t nv = NV == 0 ? dims / 8 : NV;
  __m256 ra[kHeld];
  __m256 rb[kHeld];
  __m256 acc_a = _mm256_setzero_ps();
  __m256 acc_b = _mm256_setzero_ps();
  for (std::size_t k = 0; k < nv; ++k) {
    const __m256 hv = _mm256_loadu_ps(h + 8 * k);
    const __m256 va = _mm256_loadu_ps(a + 8 * k);
    const __m256 vb = _mm256_loadu_ps(b + 8 * k);
    if constexpr (NV != 0) {
      ra[k] = va;
      rb[k] = vb;
    }
    acc_a = _mm256_fmadd_ps(hv, va, acc_a);
    acc_b = _mm256_fmadd_ps(hv, vb, acc_b);
  }
  float sa;
  float sb;
  hsum256x2(acc_a, acc_b, sa, sb);
  for (std::size_t i = 8 * nv; i < dims; ++i) {
    sa = std::fmaf(h[i], a[i], sa);
    sb = std::fmaf(h[i], b[i], sb);
  }
  err[0] = ta - static_cast<double>(sa);
  err[1] = tb - static_cast<double>(sb);
  // float(t - double(s)) is t - s rounded once: double rounding through
  // double is innocuous for a float sum (53 >= 2 * 24 + 2 bits), so the
  // coefficient skips the two conversions on the critical path and
  // keeps its bits.
  const float ca = static_cast<float>(ta) - sa;
  const float cb = static_cast<float>(tb) - sb;
  const __m256 cav = _mm256_set1_ps(ca);
  const __m256 cbv = _mm256_set1_ps(cb);
  for (std::size_t k = 0; k < nv; ++k) {
    const __m256 pv = _mm256_loadu_ps(ph2 + 8 * k);
    __m256 va;
    __m256 vb;
    if constexpr (NV != 0) {
      va = ra[k];
      vb = rb[k];
    } else {
      va = _mm256_loadu_ps(a + 8 * k);
      vb = _mm256_loadu_ps(b + 8 * k);
    }
    _mm256_storeu_ps(a + 8 * k, _mm256_fmadd_ps(cav, pv, va));
    _mm256_storeu_ps(b + 8 * k, _mm256_fmadd_ps(cbv, pv, vb));
  }
  for (std::size_t i = 8 * nv; i < dims; ++i) {
    a[i] += ca * ph2[i];
    b[i] += cb * ph2[i];
  }
}

// The sample sequence with one sample held back: a next sample on a
// different row trains as a pair with it; a repeat of its row trains
// it alone first, so the repeat's score sees its update.
template <std::size_t NV>
std::size_t oselm_context_samples(float* const* pos_rows, std::size_t n_pos,
                                  float* const* neg_rows, std::size_t n_neg,
                                  const float* h, const float* ph2,
                                  std::size_t dims, double* errors) noexcept {
  std::size_t k = 0;
  float* held = nullptr;
  double held_t = 0.0;
  const auto push = [&](float* row, double t) {
    if (held == nullptr) {
      held = row;
      held_t = t;
    } else if (held != row) {
      oselm_sample_pair<NV>(held, held_t, row, t, h, ph2, dims, errors + k);
      k += 2;
      held = nullptr;
    } else {
      oselm_sample(held, held_t, h, ph2, dims, errors + k);
      ++k;
      held_t = t;
    }
  };
  for (std::size_t g = 0; g < n_pos; ++g) {
    float* pos = pos_rows[g];
    push(pos, 1.0);
    for (std::size_t j = 0; j < n_neg; ++j) {
      if (neg_rows[j] != pos) push(neg_rows[j], 0.0);
    }
  }
  if (held != nullptr) {
    oselm_sample(held, held_t, h, ph2, dims, errors + k);
    ++k;
  }
  return k;
}

}  // namespace

std::size_t oselm_context_update(float* const* pos_rows, std::size_t n_pos,
                                 float* const* neg_rows, std::size_t n_neg,
                                 const float* h, const float* ph2,
                                 std::size_t dims, double* errors) noexcept {
  std::size_t k = 0;
  with_register_vectors(dims, [&](auto nv) {
    k = oselm_context_samples<nv()>(pos_rows, n_pos, neg_rows, n_neg, h, ph2,
                                    dims, errors);
  });
  return k;
}

void sgns_apply(float* h, float* hgrad, float* const* rows, const float* g,
                float neg_lr, std::size_t n, std::size_t dims) noexcept {
  // Column-blocked: h and the h_grad accumulator stay in registers for
  // a whole 8-column block while every sample row streams through once.
  // Per column, the float chain is the unfused sequence: h_grad FMA
  // from zero over samples (each reading the pre-update row), one
  // rounded neg_lr * g[i] coefficient per sample for the row update
  // against pre-update h, then one final FMA into h. hgrad is bypassed
  // (the accumulator never leaves registers).
  (void)hgrad;
  const __m256 nl = _mm256_set1_ps(neg_lr);
  std::size_t d = 0;
  // 32 columns per pass: the sample loop carries four independent
  // h_grad accumulator chains (the 8-wide version's single chain is
  // FMA-latency-bound at training dims), and one g[i] broadcast plus
  // one neg_lr * g[i] product serve all four blocks. Each column's
  // chain of operations is unchanged, so the results are the same bits.
  for (; d + 32 <= dims; d += 32) {
    const __m256 hb0 = _mm256_loadu_ps(h + d + 0);
    const __m256 hb1 = _mm256_loadu_ps(h + d + 8);
    const __m256 hb2 = _mm256_loadu_ps(h + d + 16);
    const __m256 hb3 = _mm256_loadu_ps(h + d + 24);
    __m256 ac0 = _mm256_setzero_ps();
    __m256 ac1 = _mm256_setzero_ps();
    __m256 ac2 = _mm256_setzero_ps();
    __m256 ac3 = _mm256_setzero_ps();
    for (std::size_t i = 0; i < n; ++i) {
      float* rp = rows[i] + d;
      const __m256 gv = _mm256_set1_ps(g[i]);
      const __m256 cv = _mm256_mul_ps(nl, gv);
      const __m256 r0 = _mm256_loadu_ps(rp + 0);
      const __m256 r1 = _mm256_loadu_ps(rp + 8);
      const __m256 r2 = _mm256_loadu_ps(rp + 16);
      const __m256 r3 = _mm256_loadu_ps(rp + 24);
      ac0 = _mm256_fmadd_ps(gv, r0, ac0);
      ac1 = _mm256_fmadd_ps(gv, r1, ac1);
      ac2 = _mm256_fmadd_ps(gv, r2, ac2);
      ac3 = _mm256_fmadd_ps(gv, r3, ac3);
      _mm256_storeu_ps(rp + 0, _mm256_fmadd_ps(cv, hb0, r0));
      _mm256_storeu_ps(rp + 8, _mm256_fmadd_ps(cv, hb1, r1));
      _mm256_storeu_ps(rp + 16, _mm256_fmadd_ps(cv, hb2, r2));
      _mm256_storeu_ps(rp + 24, _mm256_fmadd_ps(cv, hb3, r3));
    }
    _mm256_storeu_ps(h + d + 0, _mm256_fmadd_ps(nl, ac0, hb0));
    _mm256_storeu_ps(h + d + 8, _mm256_fmadd_ps(nl, ac1, hb1));
    _mm256_storeu_ps(h + d + 16, _mm256_fmadd_ps(nl, ac2, hb2));
    _mm256_storeu_ps(h + d + 24, _mm256_fmadd_ps(nl, ac3, hb3));
  }
  for (; d + 8 <= dims; d += 8) {
    const __m256 hb = _mm256_loadu_ps(h + d);
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t i = 0; i < n; ++i) {
      float* rp = rows[i] + d;
      const __m256 gv = _mm256_set1_ps(g[i]);
      const __m256 rv = _mm256_loadu_ps(rp);
      acc = _mm256_fmadd_ps(gv, rv, acc);
      const __m256 cv = _mm256_mul_ps(nl, gv);
      _mm256_storeu_ps(rp, _mm256_fmadd_ps(cv, hb, rv));
    }
    _mm256_storeu_ps(h + d, _mm256_fmadd_ps(nl, acc, hb));
  }
  for (; d < dims; ++d) {
    float hg = 0.0f;
    const float hd = h[d];
    for (std::size_t i = 0; i < n; ++i) {
      const float c = neg_lr * g[i];
      hg += g[i] * rows[i][d];
      rows[i][d] += c * hd;
    }
    h[d] += neg_lr * hg;
  }
}

namespace {

inline std::int32_t hsum256i(__m256i acc) noexcept {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));  // swap 64-bit halves
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));  // swap 32-bit pairs
  return _mm_cvtsi128_si32(s);
}

inline __m256i widen_i8(const std::int8_t* p) noexcept {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

}  // namespace

std::int32_t dot_i8(const std::int8_t* x, const std::int8_t* y,
                    std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // madd: pairwise i16*i16 -> i32 sums. 16 lanes of i16 products each
    // bounded by 127*127, so the pairwise i32 sums cannot overflow.
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(widen_i8(x + i),
                                                  widen_i8(y + i)));
  }
  std::int32_t sum = hsum256i(acc);
  for (; i < n; ++i) {
    sum += static_cast<std::int32_t>(x[i]) * static_cast<std::int32_t>(y[i]);
  }
  return sum;
}

void dot_i8_batch(const std::int8_t* rows, std::size_t n, std::size_t dims,
                  const std::int8_t* q, std::int32_t* out) noexcept {
  // Four rows per pass share each widen of q (the sign-extension is the
  // expensive step, so amortizing it across rows nearly halves the scan
  // cost). Integer addition is associative, so any blocking gives the
  // same bits — no accumulation-order contract needed here.
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const std::int8_t* r0 = rows + (r + 0) * dims;
    const std::int8_t* r1 = rows + (r + 1) * dims;
    const std::int8_t* r2 = rows + (r + 2) * dims;
    const std::int8_t* r3 = rows + (r + 3) * dims;
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = _mm256_setzero_si256();
    __m256i a2 = _mm256_setzero_si256();
    __m256i a3 = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 16 <= dims; i += 16) {
      const __m256i qv = widen_i8(q + i);
      a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(widen_i8(r0 + i), qv));
      a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(widen_i8(r1 + i), qv));
      a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(widen_i8(r2 + i), qv));
      a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(widen_i8(r3 + i), qv));
    }
    std::int32_t s0 = hsum256i(a0);
    std::int32_t s1 = hsum256i(a1);
    std::int32_t s2 = hsum256i(a2);
    std::int32_t s3 = hsum256i(a3);
    for (; i < dims; ++i) {
      const std::int32_t qi = q[i];
      s0 += static_cast<std::int32_t>(r0[i]) * qi;
      s1 += static_cast<std::int32_t>(r1[i]) * qi;
      s2 += static_cast<std::int32_t>(r2[i]) * qi;
      s3 += static_cast<std::int32_t>(r3[i]) * qi;
    }
    out[r + 0] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < n; ++r) out[r] = dot_i8(rows + r * dims, q, dims);
}

}  // namespace seqge::simd::avx2

#endif  // __AVX2__ && __FMA__
