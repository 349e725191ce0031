// GEMM micro-kernels with output columns across vector lanes.
//
// The determinism contract fixes each dot-product output's arithmetic:
// C[i,j] is exactly simd::dot(A row i, B column j, k). That is eight lane
// partial sums, where lane l adds the products of reduction indices
// l, l+8, l+16, ... in ascending order onto +0; the fold
// ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7)); then the k mod 8 tail
// products added in order; then c + s for the accumulating form.
//
// simd::dot keeps one output's eight lane partials in one register and
// folds them with a horizontal sum. gemm_dot_cols turns that around: the
// output columns sit across the vector lanes, and the eight lane classes
// become eight accumulators. Accumulator l of a row holds lane l's partial
// sum for kCols output columns at once, and the fold is the same tree of
// lane-wise vector adds. Every output element therefore gets the same float
// operations in the same order, with no horizontal sum and no packed B: B
// is read in its natural [k, n] layout, one row segment per reduction
// index. The column width is picked at compile time: 16 lanes (one __m512)
// under AVX-512, otherwise 8 (one simd::v8f, which covers the AVX, SSE2 and
// scalar builds). The last partial column vector is read and written
// through a lane mask, so no element outside C or B is touched.
//
// gemm_axpy is the dB backward GEMM (dB[l,:] += A[i,l] * G[i,:], i
// ascending). It holds two column vectors of several destination rows in
// registers across the whole i loop; each element still gets one multiply,
// then one add, per nonzero A[i,l], in ascending i. The zero skip stays:
// adding an unconditional +0 would turn a -0 accumulator into +0. A tile
// of destination rows l0.. reads A[i, l0:] as a few contiguous floats per
// i, so A is read in place (NaturalA), also through a row index
// (GatheredA): the message GEMM's gathered rows A[src[i], :] are never
// copied. The
// packed-transposed source (A copied to [rows, m]) is what the kernel
// bench prices the in-place read against.
//
// Layout convention: every matrix is row-major with an explicit leading
// dimension (lda, ldb, ...).
#pragma once

#include <algorithm>
#include <cstdint>

#include "support/simd.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace irgnn::tensor::detail {

/// kCols output columns held in one vector register. Lane-wise IEEE mul and
/// add only, so the width changes which lanes compute, never the bits.
struct ColVec {
#if defined(__AVX512F__)
  static constexpr int kCols = 16;
  __m512 v;

  static __mmask16 mask(int cols) {
    return static_cast<__mmask16>((1u << cols) - 1u);
  }
  static ColVec zero() { return {_mm512_setzero_ps()}; }
  static ColVec broadcast(float s) { return {_mm512_set1_ps(s)}; }
  static ColVec load(const float* p) { return {_mm512_loadu_ps(p)}; }
  /// The first `cols` (< kCols) floats at p; the other lanes read as 0.
  static ColVec load(const float* p, int cols) {
    return {_mm512_maskz_loadu_ps(mask(cols), p)};
  }
  void store(float* p) const { _mm512_storeu_ps(p, v); }
  void store(float* p, int cols) const {
    _mm512_mask_storeu_ps(p, mask(cols), v);
  }
  friend ColVec operator+(ColVec a, ColVec b) {
    return {_mm512_add_ps(a.v, b.v)};
  }
  friend ColVec operator*(ColVec a, ColVec b) {
    return {_mm512_mul_ps(a.v, b.v)};
  }
  /// *this + s * x in the lanes where s != 0 (NaN counts as nonzero),
  /// *this where s is +0 or -0: the dB GEMM's zero skip as a lane select,
  /// because a branch on s mispredicts on relu'd activations, which are
  /// about half zeros.
  ColVec plus_product_unless_zero(ColVec s, ColVec x) const {
    const __mmask16 nonzero =
        _mm512_cmp_ps_mask(s.v, _mm512_setzero_ps(), _CMP_NEQ_UQ);
    return {_mm512_mask_add_ps(v, nonzero, v, _mm512_mul_ps(s.v, x.v))};
  }
#else
  static constexpr int kCols = simd::kLanes;
  simd::v8f v;

  static ColVec zero() { return {simd::v8f::zero()}; }
  static ColVec broadcast(float s) { return {simd::v8f::broadcast(s)}; }
  static ColVec load(const float* p) { return {simd::v8f::load(p)}; }
  static ColVec load(const float* p, int cols) {
    float lanes[kCols] = {};
    std::copy(p, p + cols, lanes);
    return load(lanes);
  }
  void store(float* p) const { v.store(p); }
  void store(float* p, int cols) const {
    float lanes[kCols];
    v.store(lanes);
    std::copy(lanes, lanes + cols, p);
  }
  friend ColVec operator+(ColVec a, ColVec b) { return {a.v + b.v}; }
  friend ColVec operator*(ColVec a, ColVec b) { return {a.v * b.v}; }
  ColVec plus_product_unless_zero(ColVec s, ColVec x) const {
    return {simd::v8f::where_nonzero(s.v, v + s.v * x.v, v)};
  }
#endif

  /// The whole vector when Full, else the first `cols` lanes.
  template <bool Full>
  static ColVec load_cols(const float* p, int cols) {
    return Full ? load(p) : load(p, cols);
  }
  template <bool Full>
  static void store_cols(float* p, int cols, ColVec x) {
    if (Full)
      x.store(p);
    else
      x.store(p, cols);
  }
  ColVec& operator+=(ColVec o) { return *this = *this + o; }
};

inline constexpr int kCols = ColVec::kCols;

// Rows per tile. gemm_dot_cols keeps 8 accumulators per output row, so two
// rows fill 16 of AVX-512's 32 vector registers, and with 16 registers one
// row is all that fits. gemm_axpy_panels keeps two column vectors per
// destination row: 16 accumulators under AVX-512, 8 otherwise.
#if defined(__AVX512F__)
inline constexpr int kDotRows = 2;
inline constexpr int kAxpyRows = 8;
#else
inline constexpr int kDotRows = 1;
inline constexpr int kAxpyRows = 4;
#endif

/// The reference kernel: one simd::dot per output element, reading B packed
/// transposed (row j of bt is column j of B, leading dimension ldb). Tests
/// and the kernel bench pin gemm_dot_cols against it.
/// C[i,j] op= dot(a row i, bt row j, k); op is += when Accumulate.
template <bool Accumulate>
inline void gemm_dot_rowwise(const float* a, std::int64_t lda,
                             const float* bt, std::int64_t ldb, std::int64_t m,
                             std::int64_t n, std::int64_t k, float* c,
                             std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j) {
      const float v = simd::dot(arow, bt + j * ldb, k);
      if (Accumulate)
        crow[j] += v;
      else
        crow[j] = v;
    }
  }
}

/// Rows x `cols` outputs of gemm_dot_cols (cols == kCols when Full):
/// C[r, 0:cols] op= A[r, 0:k] B[0:k, 0:cols], simd::dot's arithmetic per
/// element. The lane accumulators are named locals (p* for row 0, q* for
/// row 1), not an array: GCC keeps an accumulator array on the stack and
/// spills it around the fold, while named locals stay in registers from the
/// first product through the fold.
template <bool Accumulate, int Rows, bool Full>
inline void dot_tile(const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, std::int64_t k, float* c,
                     std::int64_t ldc, int cols) {
  static_assert(Rows == 1 || Rows == 2, "a tile holds one or two rows");
  static_assert(simd::kLanes == 8, "one accumulator per lane class");
  ColVec p0 = ColVec::zero(), p1 = p0, p2 = p0, p3 = p0, p4 = p0, p5 = p0,
         p6 = p0, p7 = p0;
  ColVec q0 = p0, q1 = p0, q2 = p0, q3 = p0, q4 = p0, q5 = p0, q6 = p0,
         q7 = p0;
  // Reduction index i: row 0 adds A[0,i] * B[i,:] onto p, row 1 A[1,i] *
  // B[i,:] onto q.
  auto step = [&](std::int64_t i, ColVec& p, ColVec& q) {
    const ColVec vb = ColVec::load_cols<Full>(b + i * ldb, cols);
    p += ColVec::broadcast(a[i]) * vb;
    if constexpr (Rows == 2) q += ColVec::broadcast(a[lda + i]) * vb;
  };
  std::int64_t i = 0;
  for (; i + simd::kLanes <= k; i += simd::kLanes) {
    step(i, p0, q0);
    step(i + 1, p1, q1);
    step(i + 2, p2, q2);
    step(i + 3, p3, q3);
    step(i + 4, p4, q4);
    step(i + 5, p5, q5);
    step(i + 6, p6, q6);
    step(i + 7, p7, q7);
  }
  // Fold, then the tail products in ascending i.
  ColVec s0 = ((p0 + p4) + (p2 + p6)) + ((p1 + p5) + (p3 + p7));
  ColVec s1 = ((q0 + q4) + (q2 + q6)) + ((q1 + q5) + (q3 + q7));
  for (; i < k; ++i) step(i, s0, s1);
  if (Accumulate) s0 = ColVec::load_cols<Full>(c, cols) + s0;
  ColVec::store_cols<Full>(c, cols, s0);
  if constexpr (Rows == 2) {
    if (Accumulate) s1 = ColVec::load_cols<Full>(c + ldc, cols) + s1;
    ColVec::store_cols<Full>(c + ldc, cols, s1);
  }
}

template <bool Accumulate, int Rows>
inline void dot_rows(const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, std::int64_t n, std::int64_t k,
                     float* c, std::int64_t ldc) {
  std::int64_t j = 0;
  for (; j + kCols <= n; j += kCols)
    dot_tile<Accumulate, Rows, true>(a, lda, b + j, ldb, k, c + j, ldc, kCols);
  if (j < n)
    dot_tile<Accumulate, Rows, false>(a, lda, b + j, ldb, k, c + j, ldc,
                                      static_cast<int>(n - j));
}

/// C[i,j] op= sum_l a[i,l] * b[l,j] over l < k, with `b` in its natural
/// [k, n] layout; op is += when Accumulate. Bit-identical to
/// gemm_dot_rowwise on B's packed transpose for every shape, including
/// empty m/n/k.
template <bool Accumulate>
inline void gemm_dot_cols(const float* a, std::int64_t lda, const float* b,
                          std::int64_t ldb, std::int64_t m, std::int64_t n,
                          std::int64_t k, float* c, std::int64_t ldc) {
  std::int64_t i = 0;
  for (; i + kDotRows <= m; i += kDotRows)
    dot_rows<Accumulate, kDotRows>(a + i * lda, lda, b, ldb, n, k,
                                   c + i * ldc, ldc);
  for (; i < m; ++i)
    dot_rows<Accumulate, 1>(a + i * lda, lda, b, ldb, n, k, c + i * ldc, ldc);
}

/// Where the dB GEMM reads its left operand, as A[i, l] for product row i
/// and destination row l (relative to the tile's first row). Every source
/// yields the same values for the same A, so the kernels below differ only
/// in which addresses they read, never in the arithmetic.
struct PackedTransposedA {  // at[l, i]: A packed transposed, [rows, m]
  const float* at;
  std::int64_t lda;
  float operator()(std::int64_t i, int l) const { return at[l * lda + i]; }
  PackedTransposedA rows_from(std::int64_t l0) const {
    return {at + l0 * lda, lda};
  }
};
struct NaturalA {  // a[i, l]: A in place, [m, lda]
  const float* a;
  std::int64_t lda;
  float operator()(std::int64_t i, int l) const { return a[i * lda + l]; }
  NaturalA rows_from(std::int64_t l0) const { return {a + l0, lda}; }
};
struct GatheredA {  // a[idx[i], l]: the rows idx selects, read in place
  const float* a;
  std::int64_t lda;
  const int* idx;
  float operator()(std::int64_t i, int l) const {
    return a[static_cast<std::int64_t>(idx[i]) * lda + l];
  }
  GatheredA rows_from(std::int64_t l0) const { return {a + l0, lda, idx}; }
};

/// Rows destination rows x Vecs column vectors of the dB GEMM (one vector
/// `cols` wide unless Full), accumulators held in registers across the i
/// loop.
template <int Rows, int Vecs, bool Full, typename Src>
inline void axpy_tile(const Src& a, const float* g, std::int64_t ldg,
                      std::int64_t m, float* d, std::int64_t ldd, int cols) {
  static_assert(Full || Vecs == 1, "only a single vector can be partial");
  ColVec acc[Rows][Vecs];
  for (int r = 0; r < Rows; ++r)
    for (int v = 0; v < Vecs; ++v)
      acc[r][v] = ColVec::load_cols<Full>(d + r * ldd + v * kCols, cols);
  for (std::int64_t i = 0; i < m; ++i) {
    ColVec gi[Vecs];
    for (int v = 0; v < Vecs; ++v)
      gi[v] = ColVec::load_cols<Full>(g + i * ldg + v * kCols, cols);
    for (int r = 0; r < Rows; ++r) {
      const ColVec s = ColVec::broadcast(a(i, r));
      for (int v = 0; v < Vecs; ++v)
        acc[r][v] = acc[r][v].plus_product_unless_zero(s, gi[v]);
    }
  }
  for (int r = 0; r < Rows; ++r)
    for (int v = 0; v < Vecs; ++v)
      ColVec::store_cols<Full>(d + r * ldd + v * kCols, cols, acc[r][v]);
}

template <int Rows, typename Src>
inline void axpy_rows(const Src& a, const float* g, std::int64_t ldg,
                      std::int64_t m, std::int64_t n, float* d,
                      std::int64_t ldd) {
  std::int64_t j = 0;
  for (; j + 2 * kCols <= n; j += 2 * kCols)
    axpy_tile<Rows, 2, true>(a, g + j, ldg, m, d + j, ldd, kCols);
  if (j + kCols <= n) {
    axpy_tile<Rows, 1, true>(a, g + j, ldg, m, d + j, ldd, kCols);
    j += kCols;
  }
  if (j < n)
    axpy_tile<Rows, 1, false>(a, g + j, ldg, m, d + j, ldd,
                              static_cast<int>(n - j));
}

/// Outer-product accumulation (the dB backward GEMM):
///   d[l, j] += A[i, l] * g[i, j]   for i ascending, skipping A[i,l]==0,
/// over l in [0, rows), j in [0, n), with A read through `a` (one of the
/// sources above). `g` is [m, n] with leading dimension ldg; `d` has leading
/// dimension ldd. Each element gets exactly the adds of a per-row
/// simd::axpy loop over i with the same zero skip, so the result is
/// bit-identical to it whatever the source.
template <typename Src>
inline void gemm_axpy(const Src& a, const float* g, std::int64_t ldg,
                      std::int64_t rows, std::int64_t m, std::int64_t n,
                      float* d, std::int64_t ldd) {
  const std::int64_t tiled = rows - rows % kAxpyRows;
  for (std::int64_t l = 0; l < tiled; l += kAxpyRows)
    axpy_rows<kAxpyRows>(a.rows_from(l), g, ldg, m, n, d + l * ldd, ldd);
  for (std::int64_t l = tiled; l < rows; ++l)
    axpy_rows<1>(a.rows_from(l), g, ldg, m, n, d + l * ldd, ldd);
}

}  // namespace irgnn::tensor::detail
