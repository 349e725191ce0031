// Portable 8-wide float vector for the tensor kernels.
//
// v8f holds 8 float lanes and compiles to AVX (one 256-bit register), SSE2
// (two 128-bit registers) or an unrolled scalar fallback. Bit-identity of
// results — across ISAs, and between the vectorized kernels and the scalar
// reference the tests compare against — rests on two rules:
//
//  1. Every arithmetic op is lane-wise IEEE mul/add/sub/max, which produce
//     the same bits on every path. No FMA, ever: the build compiles with
//     -ffp-contract=off so neither the intrinsic mul+add sequences nor the
//     scalar fallback lanes can be contracted into fused multiply-adds.
//  2. Horizontal reduction uses one fixed accumulation tree,
//         ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7)),
//     implemented with the same pairing on every path. Loop-level helpers
//     (dot / sum / sum_sq_diff) accumulate whole 8-lane blocks lane-wise,
//     fold the lanes with that tree once, then add tail elements in order —
//     so a length-n reduction has exactly one summation order, independent
//     of ISA, thread count and call site.
//
// Thread-count invariance is inherited from PR 1's contract: kernels
// partition output rows, and every output element is computed by exactly
// one index with the order above.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__AVX__)
#include <immintrin.h>
#define IRGNN_SIMD_AVX 1
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#include <emmintrin.h>
#define IRGNN_SIMD_SSE 1
#endif

namespace irgnn::simd {

inline constexpr int kLanes = 8;

struct v8f {
#if defined(IRGNN_SIMD_AVX)
  __m256 v;

  static v8f zero() { return {_mm256_setzero_ps()}; }
  static v8f broadcast(float s) { return {_mm256_set1_ps(s)}; }
  static v8f load(const float* p) { return {_mm256_loadu_ps(p)}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }

  friend v8f operator+(v8f a, v8f b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend v8f operator-(v8f a, v8f b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend v8f operator*(v8f a, v8f b) { return {_mm256_mul_ps(a.v, b.v)}; }
  friend v8f operator/(v8f a, v8f b) { return {_mm256_div_ps(a.v, b.v)}; }

  /// max(x, y) with maxps semantics: (x > y) ? x : y. relu(x) is
  /// max(x, zero()), which matches the scalar `x > 0 ? x : 0` exactly
  /// (including -0.0f and NaN payloads).
  static v8f max(v8f x, v8f y) { return {_mm256_max_ps(x.v, y.v)}; }

  /// Lane-wise (y > 0) ? g : 0 — the relu derivative mask.
  static v8f where_gt_zero(v8f y, v8f g) {
    return {_mm256_and_ps(_mm256_cmp_ps(y.v, _mm256_setzero_ps(), _CMP_GT_OQ),
                          g.v)};
  }

  /// Lane-wise (s != 0) ? a : b, NaN counting as nonzero (C's s != 0).
  static v8f where_nonzero(v8f s, v8f a, v8f b) {
    return {_mm256_blendv_ps(
        b.v, a.v, _mm256_cmp_ps(s.v, _mm256_setzero_ps(), _CMP_NEQ_UQ))};
  }

  float hsum() const {
    __m128 lo = _mm256_castps256_ps128(v);    // l0 l1 l2 l3
    __m128 hi = _mm256_extractf128_ps(v, 1);  // l4 l5 l6 l7
    __m128 s = _mm_add_ps(lo, hi);            // l0+l4 l1+l5 l2+l6 l3+l7
    __m128 t = _mm_add_ps(s, _mm_movehl_ps(s, s));  // pairs fold across
    __m128 u = _mm_add_ss(t, _mm_shuffle_ps(t, t, 0x1));
    return _mm_cvtss_f32(u);  // ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))
  }
#elif defined(IRGNN_SIMD_SSE)
  __m128 lo, hi;  // lanes 0-3, 4-7

  static v8f zero() { return {_mm_setzero_ps(), _mm_setzero_ps()}; }
  static v8f broadcast(float s) { return {_mm_set1_ps(s), _mm_set1_ps(s)}; }
  static v8f load(const float* p) {
    return {_mm_loadu_ps(p), _mm_loadu_ps(p + 4)};
  }
  void store(float* p) const {
    _mm_storeu_ps(p, lo);
    _mm_storeu_ps(p + 4, hi);
  }

  friend v8f operator+(v8f a, v8f b) {
    return {_mm_add_ps(a.lo, b.lo), _mm_add_ps(a.hi, b.hi)};
  }
  friend v8f operator-(v8f a, v8f b) {
    return {_mm_sub_ps(a.lo, b.lo), _mm_sub_ps(a.hi, b.hi)};
  }
  friend v8f operator*(v8f a, v8f b) {
    return {_mm_mul_ps(a.lo, b.lo), _mm_mul_ps(a.hi, b.hi)};
  }
  friend v8f operator/(v8f a, v8f b) {
    return {_mm_div_ps(a.lo, b.lo), _mm_div_ps(a.hi, b.hi)};
  }

  static v8f max(v8f x, v8f y) {
    return {_mm_max_ps(x.lo, y.lo), _mm_max_ps(x.hi, y.hi)};
  }

  static v8f where_gt_zero(v8f y, v8f g) {
    __m128 z = _mm_setzero_ps();
    return {_mm_and_ps(_mm_cmpgt_ps(y.lo, z), g.lo),
            _mm_and_ps(_mm_cmpgt_ps(y.hi, z), g.hi)};
  }

  static v8f where_nonzero(v8f s, v8f a, v8f b) {
    __m128 z = _mm_setzero_ps();
    __m128 mlo = _mm_cmpneq_ps(s.lo, z), mhi = _mm_cmpneq_ps(s.hi, z);
    return {_mm_or_ps(_mm_and_ps(mlo, a.lo), _mm_andnot_ps(mlo, b.lo)),
            _mm_or_ps(_mm_and_ps(mhi, a.hi), _mm_andnot_ps(mhi, b.hi))};
  }

  float hsum() const {
    __m128 s = _mm_add_ps(lo, hi);  // same first pairing as the AVX path
    __m128 t = _mm_add_ps(s, _mm_movehl_ps(s, s));
    __m128 u = _mm_add_ss(t, _mm_shuffle_ps(t, t, 0x1));
    return _mm_cvtss_f32(u);
  }
#else
  float lane[kLanes];

  static v8f zero() { return {{0, 0, 0, 0, 0, 0, 0, 0}}; }
  static v8f broadcast(float s) { return {{s, s, s, s, s, s, s, s}}; }
  static v8f load(const float* p) {
    v8f r;
    for (int i = 0; i < kLanes; ++i) r.lane[i] = p[i];
    return r;
  }
  void store(float* p) const {
    for (int i = 0; i < kLanes; ++i) p[i] = lane[i];
  }

  friend v8f operator+(v8f a, v8f b) {
    v8f r;
    for (int i = 0; i < kLanes; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  friend v8f operator-(v8f a, v8f b) {
    v8f r;
    for (int i = 0; i < kLanes; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  friend v8f operator*(v8f a, v8f b) {
    v8f r;
    for (int i = 0; i < kLanes; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
  friend v8f operator/(v8f a, v8f b) {
    v8f r;
    for (int i = 0; i < kLanes; ++i) r.lane[i] = a.lane[i] / b.lane[i];
    return r;
  }

  static v8f max(v8f x, v8f y) {
    v8f r;
    for (int i = 0; i < kLanes; ++i)
      r.lane[i] = x.lane[i] > y.lane[i] ? x.lane[i] : y.lane[i];
    return r;
  }

  static v8f where_gt_zero(v8f y, v8f g) {
    v8f r;
    for (int i = 0; i < kLanes; ++i)
      r.lane[i] = y.lane[i] > 0.0f ? g.lane[i] : 0.0f;
    return r;
  }

  static v8f where_nonzero(v8f s, v8f a, v8f b) {
    v8f r;
    for (int i = 0; i < kLanes; ++i)
      r.lane[i] = s.lane[i] != 0.0f ? a.lane[i] : b.lane[i];
    return r;
  }

  float hsum() const {
    float a04 = lane[0] + lane[4];
    float a15 = lane[1] + lane[5];
    float a26 = lane[2] + lane[6];
    float a37 = lane[3] + lane[7];
    return (a04 + a26) + (a15 + a37);
  }
#endif

  v8f& operator+=(v8f o) { return *this = *this + o; }
};

// --- Loop helpers (the canonical deterministic reductions) ------------------

/// sum_i a[i] * b[i] with the fixed block/tree/tail order described above.
inline float dot(const float* a, const float* b, std::int64_t n) {
  v8f acc = v8f::zero();
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) acc += v8f::load(a + i) * v8f::load(b + i);
  float s = acc.hsum();
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

/// sum_i a[i], same order.
inline float sum(const float* a, std::int64_t n) {
  v8f acc = v8f::zero();
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) acc += v8f::load(a + i);
  float s = acc.hsum();
  for (; i < n; ++i) s += a[i];
  return s;
}

/// sum_i (a[i] - mean)^2, same order (layer-norm variance numerator).
inline float sum_sq_diff(const float* a, float mean, std::int64_t n) {
  v8f m = v8f::broadcast(mean);
  v8f acc = v8f::zero();
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    v8f d = v8f::load(a + i) - m;
    acc += d * d;
  }
  float s = acc.hsum();
  for (; i < n; ++i) {
    float d = a[i] - mean;
    s += d * d;
  }
  return s;
}

/// dst[i] += s * x[i]. Element-wise, so vector blocks and scalar tail
/// produce the same bits as a plain scalar loop.
inline void axpy(float* dst, float s, const float* x, std::int64_t n) {
  v8f vs = v8f::broadcast(s);
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    (v8f::load(dst + i) + vs * v8f::load(x + i)).store(dst + i);
  for (; i < n; ++i) dst[i] += s * x[i];
}

/// dst[i] += x[i].
inline void add_inplace(float* dst, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    (v8f::load(dst + i) + v8f::load(x + i)).store(dst + i);
  for (; i < n; ++i) dst[i] += x[i];
}

/// True when the build compiled v8f to real vector instructions.
inline constexpr bool vectorized() {
#if defined(IRGNN_SIMD_AVX) || defined(IRGNN_SIMD_SSE)
  return true;
#else
  return false;
#endif
}

}  // namespace irgnn::simd
