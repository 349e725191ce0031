// Tensor/autograd tests. The core of the suite is numerical gradient
// checking: for every differentiable op we compare the analytic gradient to
// central finite differences on random inputs. A second block pins the SIMD
// determinism contract: every vectorized kernel must be bit-identical to an
// unrolled scalar reference that performs the same fixed 8-lane accumulation
// tree, across odd sizes, tail lanes and empty segments.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "support/simd.h"
#include "tensor/gemm.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace irgnn::tensor {
namespace {

/// Central-difference gradient check of `loss_fn` wrt `input`'s entries.
/// loss_fn must rebuild the graph from scratch at each call.
void grad_check(Tensor input,
                const std::function<Tensor()>& loss_fn,
                float tolerance = 2e-2f) {
  input.zero_grad();  // leaf grads persist across checks; start clean
  Tensor loss = loss_fn();
  loss.backward();
  std::vector<float> analytic(input.grad(), input.grad() + input.numel());

  const float eps = 1e-2f;
  for (int i = 0; i < input.numel(); ++i) {
    float saved = input.data()[i];
    input.data()[i] = saved + eps;
    float up = loss_fn().item();
    input.data()[i] = saved - eps;
    float down = loss_fn().item();
    input.data()[i] = saved;
    float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tolerance * std::max(1.0f, std::fabs(numeric)))
        << "entry " << i;
  }
}

Tensor sum_all(const Tensor& t) {
  // Reduce to scalar via segment_mean + scale (mean * n == sum).
  std::vector<int> seg(t.rows(), 0);
  Tensor pooled = segment_mean(t, seg, 1);
  Tensor ones = Tensor::full({t.cols(), 1}, 1.0f);
  return scale(matmul(pooled, ones), static_cast<float>(t.rows()));
}

TEST(TensorTest, ConstructorsAndAccessors) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.at(1, 2), 0.0f);
  Tensor f = Tensor::full({2, 2}, 3.5f);
  EXPECT_EQ(f.at(0, 1), 3.5f);
  Tensor d = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(d.at(1, 0), 3.0f);
}

TEST(TensorTest, MatmulForward) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(TensorTest, BlockedMatmulMatchesNaiveReference) {
  // The blocked/transposed kernel against a straight triple loop, on shapes
  // deliberately not multiples of any block size (1, primes, pow2 +/- 1).
  struct Case {
    int m, k, n;
  };
  for (const Case& c : {Case{1, 1, 1}, Case{3, 5, 2}, Case{17, 31, 13},
                        Case{64, 64, 64}, Case{65, 33, 17}, Case{128, 1, 9},
                        Case{1, 200, 1}, Case{47, 16, 129}}) {
    Rng rng(1000 + c.m + c.k + c.n);
    Tensor a = Tensor::xavier({c.m, c.k}, rng);
    Tensor b = Tensor::xavier({c.k, c.n}, rng);
    Tensor prod = matmul(a, b);
    for (int i = 0; i < c.m; ++i)
      for (int j = 0; j < c.n; ++j) {
        float ref = 0.0f;
        for (int l = 0; l < c.k; ++l) ref += a.at(i, l) * b.at(l, j);
        ASSERT_NEAR(prod.at(i, j), ref, 1e-5f)
            << c.m << "x" << c.k << "x" << c.n << " at (" << i << "," << j
            << ")";
      }
  }
}

TEST(TensorTest, MatmulGradient) {
  Rng rng(1);
  Tensor a = Tensor::xavier({3, 4}, rng);
  Tensor b = Tensor::xavier({4, 2}, rng);
  grad_check(a, [&] { return sum_all(matmul(a, b)); });
  grad_check(b, [&] { return sum_all(matmul(a, b)); });
}

TEST(TensorTest, ElementwiseGradients) {
  Rng rng(2);
  Tensor a = Tensor::xavier({3, 3}, rng);
  Tensor b = Tensor::xavier({3, 3}, rng);
  grad_check(a, [&] { return sum_all(add(a, b)); });
  grad_check(a, [&] { return sum_all(sub(a, b)); });
  grad_check(a, [&] { return sum_all(mul(a, b)); });
  grad_check(b, [&] { return sum_all(mul(a, b)); });
}

TEST(TensorTest, ActivationGradients) {
  Rng rng(3);
  Tensor a = Tensor::xavier({4, 4}, rng);
  grad_check(a, [&] { return sum_all(tanh_t(a)); });
  grad_check(a, [&] { return sum_all(sigmoid(a)); });
  // relu is non-differentiable at 0; nudge values away from it.
  for (int i = 0; i < a.numel(); ++i)
    if (std::fabs(a.data()[i]) < 0.1f) a.data()[i] = 0.5f;
  grad_check(a, [&] { return sum_all(relu(a)); });
}

TEST(TensorTest, AddBiasGradient) {
  Rng rng(4);
  Tensor a = Tensor::xavier({3, 4}, rng);
  Tensor b = Tensor::xavier({1, 4}, rng);
  grad_check(b, [&] { return sum_all(add_bias(a, b)); });
}

TEST(TensorTest, FusedBiasActivationMatchesUnfused) {
  Rng rng(11);
  Tensor a = Tensor::xavier({5, 6}, rng);
  Tensor b = Tensor::xavier({1, 6}, rng);
  Tensor fused_relu = add_bias_act(a, b, Act::Relu);
  Tensor unfused_relu = relu(add_bias_act(a, b, Act::None));
  Tensor fused_tanh = add_bias_act(a, b, Act::Tanh);
  Tensor unfused_tanh = tanh_t(add_bias_act(a, b, Act::None));
  Tensor fused_sig = add_bias_act(a, b, Act::Sigmoid);
  Tensor unfused_sig = sigmoid(add_bias_act(a, b, Act::None));
  for (int i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(fused_relu.node()->data[i], unfused_relu.node()->data[i]);
    EXPECT_NEAR(fused_tanh.node()->data[i], unfused_tanh.node()->data[i],
                1e-7f);
    EXPECT_NEAR(fused_sig.node()->data[i], unfused_sig.node()->data[i],
                1e-7f);
  }
}

TEST(TensorTest, FusedBiasActivationGradients) {
  Rng rng(12);
  Tensor a = Tensor::xavier({4, 5}, rng);
  Tensor b = Tensor::xavier({1, 5}, rng);
  // relu is non-differentiable at 0; nudge pre-activations away from it.
  for (int i = 0; i < a.numel(); ++i)
    if (std::fabs(a.data()[i]) < 0.1f) a.data()[i] = 0.4f;
  grad_check(a, [&] { return sum_all(add_bias_act(a, b, Act::Tanh)); });
  grad_check(b, [&] { return sum_all(add_bias_act(a, b, Act::Tanh)); });
  grad_check(a, [&] { return sum_all(add_bias_act(a, b, Act::Sigmoid)); });
  grad_check(a, [&] { return sum_all(mul(add_bias_act(a, b, Act::Relu),
                                         add_bias_act(a, b, Act::Relu))); });
}

TEST(TensorTest, LayerNormGradient) {
  Rng rng(5);
  Tensor x = Tensor::xavier({3, 6}, rng);
  Tensor gamma = Tensor::full({1, 6}, 1.0f, true);
  Tensor beta = Tensor::zeros({1, 6}, true);
  grad_check(x, [&] { return sum_all(mul(layer_norm(x, gamma, beta),
                                         layer_norm(x, gamma, beta))); });
  grad_check(gamma,
             [&] { return sum_all(mul(layer_norm(x, gamma, beta),
                                      layer_norm(x, gamma, beta))); });
}

TEST(TensorTest, LayerNormNormalizes) {
  Rng rng(6);
  Tensor x = Tensor::xavier({2, 8}, rng);
  Tensor gamma = Tensor::full({1, 8}, 1.0f);
  Tensor beta = Tensor::zeros({1, 8});
  Tensor y = layer_norm(x, gamma, beta);
  for (int i = 0; i < 2; ++i) {
    float mean = 0;
    for (int j = 0; j < 8; ++j) mean += y.at(i, j);
    EXPECT_NEAR(mean / 8, 0.0f, 1e-5f);
  }
}

TEST(TensorTest, EmbeddingGradientAccumulates) {
  Tensor table = Tensor::from_data({3, 2}, {1, 2, 3, 4, 5, 6}, true);
  Tensor out = embedding(table, {0, 2, 0});
  EXPECT_FLOAT_EQ(out.at(2, 1), 2);
  Tensor loss = sum_all(out);
  loss.backward();
  EXPECT_FLOAT_EQ(table.grad()[0], 2);  // row 0 used twice
  EXPECT_FLOAT_EQ(table.grad()[4], 1);  // row 2 used once
  EXPECT_FLOAT_EQ(table.grad()[2], 0);  // row 1 unused
}

TEST(TensorTest, IndexAddRowsForwardAndGradient) {
  Rng rng(7);
  Tensor x = Tensor::xavier({4, 3}, rng);
  std::vector<int> dst{0, 1, 0, 1};
  std::vector<float> coeff{0.5f, 1.0f, 0.5f, 1.0f};
  Tensor out = index_add_rows(x, dst, coeff, 2);
  EXPECT_NEAR(out.at(0, 0), 0.5f * (x.at(0, 0) + x.at(2, 0)), 1e-5f);
  grad_check(x, [&] { return sum_all(mul(index_add_rows(x, dst, coeff, 2),
                                         index_add_rows(x, dst, coeff, 2))); });
}

TEST(TensorTest, SegmentMeanForward) {
  Tensor x = Tensor::from_data({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor out = segment_mean(x, {0, 0, 1, 1}, 2);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2);
  EXPECT_FLOAT_EQ(out.at(1, 1), 7);
}

TEST(TensorTest, LogSoftmaxRowsSumToOne) {
  Rng rng(8);
  Tensor x = Tensor::xavier({3, 5}, rng);
  Tensor lp = log_softmax(x);
  for (int i = 0; i < 3; ++i) {
    float sum = 0;
    for (int j = 0; j < 5; ++j) sum += std::exp(lp.at(i, j));
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(TensorTest, NllLossGradient) {
  Rng rng(9);
  Tensor x = Tensor::xavier({4, 3}, rng);
  std::vector<int> targets{0, 2, 1, 2};
  grad_check(x, [&] { return nll_loss(log_softmax(x), targets); });
}

TEST(TensorTest, DropoutIdentityInEval) {
  Rng rng(10);
  Tensor x = Tensor::full({2, 2}, 3.0f);
  Tensor y = dropout(x, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(y.at(0, 0), 3.0f);
}

TEST(TensorTest, ArgmaxRows) {
  Tensor x = Tensor::from_data({2, 3}, {1, 5, 2, 9, 0, 3});
  auto idx = argmax_rows(x);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(OptimizerTest, AdamMinimizesQuadratic) {
  // minimize ||w - target||^2
  Tensor w = Tensor::zeros({1, 4}, true);
  Tensor target = Tensor::from_data({1, 4}, {1, -2, 3, -4});
  Adam adam({w}, {.lr = 0.1f});
  for (int step = 0; step < 300; ++step) {
    adam.zero_grad();
    Tensor diff = sub(w, target);
    Tensor loss = sum_all(mul(diff, diff));
    loss.backward();
    adam.step();
  }
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(w.data()[i], target.data()[i], 0.05f);
}

TEST(OptimizerTest, SgdMomentumMinimizes) {
  Tensor w = Tensor::full({1, 2}, 5.0f, true);
  Sgd sgd({w}, 0.05f, 0.9f);
  for (int step = 0; step < 200; ++step) {
    sgd.zero_grad();
    Tensor loss = sum_all(mul(w, w));
    loss.backward();
    sgd.step();
  }
  EXPECT_NEAR(w.data()[0], 0.0f, 0.05f);
}

// --- SIMD bit-identity ------------------------------------------------------
// Unrolled scalar references for the canonical reductions of
// support/simd.h: 8 lane accumulators fed block by block, folded with the
// fixed pairing ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), tail elements in
// order. The vectorized helpers must match these bit for bit.

float ref_tree_fold(const float lane[8]) {
  float a04 = lane[0] + lane[4];
  float a15 = lane[1] + lane[5];
  float a26 = lane[2] + lane[6];
  float a37 = lane[3] + lane[7];
  return (a04 + a26) + (a15 + a37);
}

float ref_dot(const float* a, const float* b, std::int64_t n) {
  float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (int l = 0; l < 8; ++l) lane[l] += a[i + l] * b[i + l];
  float s = ref_tree_fold(lane);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

float ref_sum(const float* a, std::int64_t n) {
  float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (int l = 0; l < 8; ++l) lane[l] += a[i + l];
  float s = ref_tree_fold(lane);
  for (; i < n; ++i) s += a[i];
  return s;
}

float ref_sum_sq_diff(const float* a, float mean, std::int64_t n) {
  float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (int l = 0; l < 8; ++l) {
      float d = a[i + l] - mean;
      lane[l] += d * d;
    }
  float s = ref_tree_fold(lane);
  for (; i < n; ++i) {
    float d = a[i] - mean;
    s += d * d;
  }
  return s;
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

/// Every third entry from `offset` becomes +0 and every seventh -0 (the
/// later write wins), so a kernel meets signed zeros in that operand.
void plant_signed_zeros(std::vector<float>& v, std::size_t offset) {
  for (std::size_t i = offset; i < v.size(); i += 3) v[i] = 0.0f;
  for (std::size_t i = offset; i < v.size(); i += 7) v[i] = -0.0f;
}

/// Bitwise equality; EXPECT_EQ on floats would let -0 pass for +0.
bool same_bits(const float* a, const float* b, std::int64_t n) {
  // An empty vector's data() may be null, which memcmp must not be given.
  return n == 0 ||
         std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}


// Sizes straddling every tail case: empty, sub-lane, exact lanes, lanes+tail.
const std::int64_t kSimdSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64,
                                   100, 129};

TEST(SimdTest, ReductionsBitIdenticalToScalarTree) {
  for (std::int64_t n : kSimdSizes) {
    std::vector<float> a = random_vec(n, 100 + n);
    std::vector<float> b = random_vec(n, 200 + n);
    EXPECT_EQ(simd::dot(a.data(), b.data(), n), ref_dot(a.data(), b.data(), n))
        << "dot n=" << n;
    EXPECT_EQ(simd::sum(a.data(), n), ref_sum(a.data(), n)) << "sum n=" << n;
    EXPECT_EQ(simd::sum_sq_diff(a.data(), 0.375f, n),
              ref_sum_sq_diff(a.data(), 0.375f, n))
        << "sum_sq_diff n=" << n;
  }
}

TEST(SimdTest, ElementwiseHelpersBitIdenticalToScalar) {
  for (std::int64_t n : kSimdSizes) {
    std::vector<float> x = random_vec(n, 300 + n);
    std::vector<float> dst_v = random_vec(n, 400 + n);
    std::vector<float> dst_s = dst_v;
    simd::axpy(dst_v.data(), 1.25f, x.data(), n);
    for (std::int64_t i = 0; i < n; ++i) dst_s[i] += 1.25f * x.data()[i];
    EXPECT_EQ(dst_v, dst_s) << "axpy n=" << n;

    dst_v = random_vec(n, 500 + n);
    dst_s = dst_v;
    simd::add_inplace(dst_v.data(), x.data(), n);
    for (std::int64_t i = 0; i < n; ++i) dst_s[i] += x.data()[i];
    EXPECT_EQ(dst_v, dst_s) << "add_inplace n=" << n;
  }
}

TEST(SimdTest, MatmulForwardBitIdenticalToTreeReference) {
  struct Case {
    int m, k, n;
  };
  for (const Case& c : {Case{1, 1, 1}, Case{3, 7, 2}, Case{5, 9, 13},
                        Case{17, 33, 8}, Case{16, 64, 31}, Case{2, 200, 3},
                        // block-shape edges for the register-blocked kernel:
                        // exact 4x2 multiples, rows/cols below one block
                        Case{4, 8, 2}, Case{8, 16, 4}, Case{3, 5, 1},
                        Case{2, 9, 5}, Case{5, 24, 2}}) {
    Rng rng(7000 + c.m + c.k + c.n);
    Tensor a = Tensor::xavier({c.m, c.k}, rng);
    Tensor b = Tensor::xavier({c.k, c.n}, rng);
    Tensor prod = matmul(a, b);
    // Reference: same packed-transpose layout, same per-entry tree dot.
    std::vector<float> bt(static_cast<std::size_t>(c.k) * c.n);
    for (int l = 0; l < c.k; ++l)
      for (int j = 0; j < c.n; ++j) bt[j * c.k + l] = b.at(l, j);
    for (int i = 0; i < c.m; ++i)
      for (int j = 0; j < c.n; ++j)
        ASSERT_EQ(prod.at(i, j),
                  ref_dot(a.data() + static_cast<std::int64_t>(i) * c.k,
                          bt.data() + static_cast<std::int64_t>(j) * c.k, c.k))
            << c.m << "x" << c.k << "x" << c.n << " at (" << i << "," << j
            << ")";
  }
}

TEST(SimdTest, ColumnLaneGemmBitIdenticalToRowwise) {
  // gemm_dot_cols (output columns across vector lanes, B read as [k, n])
  // against one simd::dot per output element on B's packed transpose, both
  // built from one B, raw buffers, no tape. Compared bit for bit, with
  // signed zeros planted in A, B and C. Shapes: empty m/n/k; n straddling
  // both column widths (8 and 16) and their doubles; m one row either side
  // of the row tile; k with and without an 8-lane tail.
  struct Case {
    int m, n, k;
  };
  std::vector<Case> cases = {{0, 0, 0},  {0, 3, 5},   {3, 0, 5},
                             {2, 5, 0},  {1, 1, 1},   {5, 3, 19},
                             {17, 13, 33}, {12, 7, 65}, {33, 31, 64}};
  const int r = detail::kDotRows;
  for (int n : {7, 8, 9, 15, 16, 17, 31, 32, 33})
    for (int m : {r - 1, r, r + 1, 2 * r + 1})
      for (int k : {5, 32, 37}) cases.push_back({m, n, k});
  for (const Case& c : cases) {
    const std::size_t mk = static_cast<std::size_t>(c.m) * c.k;
    const std::size_t kn = static_cast<std::size_t>(c.k) * c.n;
    const std::size_t mn = static_cast<std::size_t>(c.m) * c.n;
    std::vector<float> a = random_vec(mk, 9000 + c.m);
    std::vector<float> b = random_vec(kn, 9100 + c.n);
    plant_signed_zeros(a, 1);
    plant_signed_zeros(b, 2);
    std::vector<float> bt(kn);
    for (int l = 0; l < c.k; ++l)
      for (int j = 0; j < c.n; ++j)
        bt[static_cast<std::size_t>(j) * c.k + l] =
            b[static_cast<std::size_t>(l) * c.n + j];
    const std::string shape = std::to_string(c.m) + "x" + std::to_string(c.n) +
                              "x" + std::to_string(c.k);

    // Assign form over a C that holds stale values, signed zeros included.
    std::vector<float> c_row = random_vec(mn, 9200 + c.k);
    plant_signed_zeros(c_row, 0);
    std::vector<float> c_col = c_row;
    detail::gemm_dot_rowwise<false>(a.data(), c.k, bt.data(), c.k, c.m, c.n,
                                    c.k, c_row.data(), c.n);
    detail::gemm_dot_cols<false>(a.data(), c.k, b.data(), c.n, c.m, c.n, c.k,
                                 c_col.data(), c.n);
    EXPECT_TRUE(same_bits(c_row.data(), c_col.data(),
                          static_cast<std::int64_t>(mn)))
        << "assign " << shape;

    // Accumulate form (the dA backward) onto a non-zero C.
    std::vector<float> acc_row = random_vec(mn, 9300 + c.k);
    plant_signed_zeros(acc_row, 0);
    std::vector<float> acc_col = acc_row;
    detail::gemm_dot_rowwise<true>(a.data(), c.k, bt.data(), c.k, c.m, c.n,
                                   c.k, acc_row.data(), c.n);
    detail::gemm_dot_cols<true>(a.data(), c.k, b.data(), c.n, c.m, c.n, c.k,
                                acc_col.data(), c.n);
    EXPECT_TRUE(same_bits(acc_row.data(), acc_col.data(),
                          static_cast<std::int64_t>(mn)))
        << "accumulate " << shape;
  }
}

TEST(SimdTest, AxpyGemmBitIdenticalToRowwiseAxpyForEverySource) {
  // The dB GEMM against the per-row simd::axpy loop, compared bit for bit,
  // reading A three ways: in place ([m, k], NaturalA), through a row index
  // (GatheredA: A[idx[i], :] of a taller A, repeated indices included) and
  // packed transposed (PackedTransposedA, the kernel bench's baseline).
  // The A[i,l]==0 skip is what keeps a -0 in dB: an all-zero A column
  // (both signs) over a dB row of -0s must leave it -0, where an
  // unconditional add of 0 * g would make it +0. Shapes: empty dimensions,
  // destination rows one either side of the row tile, n straddling one and
  // two column vectors of either width. The kernel sees columns l0.. of a
  // wider A, as a row block of the parallel backward does.
  struct Case {
    int rows, m, n;
  };
  std::vector<Case> cases = {{0, 3, 5},  {1, 1, 1},  {16, 2, 0},
                             {5, 0, 19}, {13, 11, 40}, {19, 7, 23}};
  const int r = detail::kAxpyRows;
  for (int n : {7, 8, 9, 15, 16, 17, 31, 32, 33})
    for (int rows : {r - 1, r, r + 1, 2 * r + 1})
      for (int m : {1, 6, 11}) cases.push_back({rows, m, n});
  for (const Case& c : cases) {
    const int l0 = 3;                 // the kernel's first A column
    const int k = l0 + c.rows + 2;    // A's width
    const int src_rows = c.m + 4;     // the gathered A is taller
    // Row i of the product is A row idx[i]; i and i + 2 share a row.
    std::vector<int> idx(static_cast<std::size_t>(c.m));
    for (int i = 0; i < c.m; ++i)
      idx[i] = i % 3 == 2 ? idx[i - 2] : (5 * i + 1) % src_rows;
    std::vector<float> a_src = random_vec(
        static_cast<std::size_t>(src_rows) * k, 9400 + c.rows);
    plant_signed_zeros(a_src, 0);
    for (int l = l0 + 1; l < l0 + c.rows; l += 4)  // all-zero columns
      for (int i = 0; i < src_rows; ++i)
        a_src[static_cast<std::size_t>(i) * k + l] = i % 2 ? -0.0f : 0.0f;
    // The same rows gathered ([m, k]) and packed transposed ([rows, m]).
    std::vector<float> a(static_cast<std::size_t>(c.m) * k);
    std::vector<float> at(static_cast<std::size_t>(c.rows) * c.m);
    for (int i = 0; i < c.m; ++i)
      for (int l = 0; l < k; ++l) {
        const float v = a_src[static_cast<std::size_t>(idx[i]) * k + l];
        a[static_cast<std::size_t>(i) * k + l] = v;
        if (l >= l0 && l < l0 + c.rows)
          at[static_cast<std::size_t>(l - l0) * c.m + i] = v;
      }
    std::vector<float> g =
        random_vec(static_cast<std::size_t>(c.m) * c.n, 9500 + c.n);
    plant_signed_zeros(g, 1);
    std::vector<float> d_ref =
        random_vec(static_cast<std::size_t>(c.rows) * c.n, 9600 + c.m);
    plant_signed_zeros(d_ref, 0);
    for (int l = 1; l < c.rows; l += 4)  // -0 accumulators
      for (int j = 0; j < c.n; ++j)
        d_ref[static_cast<std::size_t>(l) * c.n + j] = -0.0f;
    std::vector<float> d_nat = d_ref, d_idx = d_ref, d_packed = d_ref;
    for (int l = 0; l < c.rows; ++l) {
      float* drow = d_ref.data() + static_cast<std::int64_t>(l) * c.n;
      for (int i = 0; i < c.m; ++i) {
        const float ail = a[static_cast<std::size_t>(i) * k + l0 + l];
        if (ail == 0.0f) continue;
        simd::axpy(drow, ail, g.data() + static_cast<std::int64_t>(i) * c.n,
                   c.n);
      }
    }
    detail::gemm_axpy(detail::NaturalA{a.data() + l0, k}, g.data(), c.n,
                      c.rows, c.m, c.n, d_nat.data(), c.n);
    detail::gemm_axpy(detail::GatheredA{a_src.data() + l0, k, idx.data()},
                      g.data(), c.n, c.rows, c.m, c.n, d_idx.data(), c.n);
    detail::gemm_axpy(detail::PackedTransposedA{at.data(), c.m}, g.data(),
                      c.n, c.rows, c.m, c.n, d_packed.data(), c.n);
    const std::string shape = std::to_string(c.rows) + "x" +
                              std::to_string(c.m) + "x" + std::to_string(c.n);
    const auto size = static_cast<std::int64_t>(d_ref.size());
    EXPECT_TRUE(same_bits(d_ref.data(), d_nat.data(), size))
        << "natural " << shape;
    EXPECT_TRUE(same_bits(d_ref.data(), d_idx.data(), size))
        << "indexed " << shape;
    EXPECT_TRUE(same_bits(d_ref.data(), d_packed.data(), size))
        << "packed " << shape;
  }
}

TEST(TensorTest, DropoutMaskAndOutputMatchBernoulliDraws) {
  // The integer threshold against the double comparison it replaced:
  // mask[i] = bernoulli(keep) ? 1 / keep : 0 and y[i] = mask[i] * x[i],
  // bit for bit, over the same draws. 203 elements: not a multiple of 8.
  // The backward adds mask[i] * g[i] into the input's zeroed gradient.
  const int rows = 7, cols = 29;
  const std::vector<float> values = random_vec(rows * cols, 77);
  const std::vector<float> upstream = random_vec(rows * cols, 78);
  for (float p : {0.1f, 0.3f, 0.5f, 0.9f}) {
    Tensor x = Tensor::from_data({rows, cols}, values, /*requires_grad=*/true);
    Rng rng(1234), ref_rng(1234);
    Tensor y = dropout(x, p, rng, /*training=*/true);
    const float keep = 1.0f - p;
    std::vector<float> mask(values.size()), expected(values.size()),
        expected_grad(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      mask[i] = ref_rng.bernoulli(keep) ? 1.0f / keep : 0.0f;
      expected[i] = mask[i] * values[i];
      expected_grad[i] = 0.0f + mask[i] * upstream[i];
    }
    EXPECT_EQ(rng(), ref_rng()) << "p " << p << ": same number of draws";
    EXPECT_TRUE(same_bits(y.data(), expected.data(), y.numel())) << "p " << p;
    auto node = y.node();
    node->ensure_grad();
    std::copy(upstream.begin(), upstream.end(), node->grad.begin());
    x.grad();  // materialize
    node->backward_fn(*node);
    EXPECT_TRUE(same_bits(x.grad(), expected_grad.data(), x.numel()))
        << "p " << p;
  }
}

TEST(SimdTest, MatmulBackwardBitIdenticalToTreeReference) {
  const int m = 5, k = 19, n = 11;  // odd sizes: tails in every direction
  Rng rng(81);
  Tensor a = Tensor::xavier({m, k}, rng);
  Tensor b = Tensor::xavier({k, n}, rng);
  Tensor c = matmul(a, b);
  // Drive the backward closure directly with a known upstream gradient.
  auto node = c.node();
  node->ensure_grad();
  std::vector<float> g = random_vec(static_cast<std::size_t>(m) * n, 9);
  std::copy(g.begin(), g.end(), node->grad.begin());
  a.grad();  // materialize
  b.grad();
  node->backward_fn(*node);

  // dA[i,l] = tree_dot(g[i,:], B[l,:]).
  for (int i = 0; i < m; ++i)
    for (int l = 0; l < k; ++l)
      ASSERT_EQ(a.grad()[i * k + l],
                ref_dot(g.data() + static_cast<std::int64_t>(i) * n,
                        b.data() + static_cast<std::int64_t>(l) * n, n))
          << "dA(" << i << "," << l << ")";
  // dB[l,:] = sum_i A[i,l] * g[i,:], i ascending, element-wise adds.
  std::vector<float> db(static_cast<std::size_t>(k) * n, 0.0f);
  for (int l = 0; l < k; ++l)
    for (int i = 0; i < m; ++i) {
      float ail = a.at(i, l);
      if (ail == 0.0f) continue;
      for (int j = 0; j < n; ++j) db[l * n + j] += ail * g[i * n + j];
    }
  for (int l = 0; l < k; ++l)
    for (int j = 0; j < n; ++j)
      ASSERT_EQ(b.grad()[l * n + j], db[l * n + j])
          << "dB(" << l << "," << j << ")";
}

TEST(SimdTest, AddBiasActBitIdenticalToScalar) {
  for (int n : {1, 7, 8, 19, 32, 45}) {
    const int m = 3;
    Rng rng(600 + n);
    Tensor a = Tensor::xavier({m, n}, rng);
    Tensor b = Tensor::xavier({1, n}, rng);
    for (Act act : {Act::None, Act::Relu, Act::Tanh, Act::Sigmoid}) {
      Tensor y = add_bias_act(a, b, act);
      for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j) {
          float pre = a.at(i, j) + b.at(0, j);
          float ref = pre;
          switch (act) {
            case Act::Relu:
              ref = pre > 0.0f ? pre : 0.0f;
              break;
            case Act::Tanh:
              ref = std::tanh(pre);
              break;
            case Act::Sigmoid:
              ref = 1.0f / (1.0f + std::exp(-pre));
              break;
            case Act::None:
              break;
          }
          ASSERT_EQ(y.at(i, j), ref)
              << "act " << static_cast<int>(act) << " n=" << n << " (" << i
              << "," << j << ")";
        }
    }
  }
}

TEST(SimdTest, LayerNormForwardBitIdenticalToTreeReference) {
  for (int n : {1, 5, 8, 13, 24, 37}) {
    const int m = 4;
    Rng rng(700 + n);
    Tensor x = Tensor::xavier({m, n}, rng);
    Tensor gamma = Tensor::xavier({1, n}, rng);
    Tensor beta = Tensor::xavier({1, n}, rng);
    Tensor y = layer_norm(x, gamma, beta);
    for (int i = 0; i < m; ++i) {
      const float* row = x.data() + static_cast<std::int64_t>(i) * n;
      float mean = ref_sum(row, n) / static_cast<float>(n);
      float var = ref_sum_sq_diff(row, mean, n) / static_cast<float>(n);
      float inv_std = 1.0f / std::sqrt(var + 1e-5f);
      for (int j = 0; j < n; ++j) {
        float xhat = (row[j] - mean) * inv_std;
        ASSERT_EQ(y.at(i, j), gamma.at(0, j) * xhat + beta.at(0, j))
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(SimdTest, ScatterKernelsBitIdenticalWithEmptySegments) {
  for (int d : {1, 6, 8, 21, 40}) {
    const int rows = 7;
    Rng rng(800 + d);
    Tensor x = Tensor::xavier({rows, d}, rng);
    // Segment 1 is empty; segment 3 collects most rows.
    std::vector<int> seg{0, 3, 3, 2, 3, 0, 3};
    Tensor pooled = segment_mean(x, seg, 4);
    std::vector<float> ref(static_cast<std::size_t>(4) * d, 0.0f);
    std::vector<float> count(4, 0.0f);
    for (int i = 0; i < rows; ++i) count[seg[i]] += 1.0f;
    for (int i = 0; i < rows; ++i)
      for (int j = 0; j < d; ++j)
        ref[seg[i] * d + j] += (1.0f / count[seg[i]]) * x.at(i, j);
    for (int s = 0; s < 4; ++s)
      for (int j = 0; j < d; ++j)
        ASSERT_EQ(pooled.at(s, j), ref[s * d + j])
            << "segment_mean d=" << d << " (" << s << "," << j << ")";
    for (int j = 0; j < d; ++j)
      ASSERT_EQ(pooled.at(1, j), 0.0f) << "empty segment must stay zero";

    std::vector<int> dst{2, 0, 2, 1, 2, 0, 1};
    std::vector<float> coeff{0.5f, 1.0f, 0.25f, 2.0f, 1.5f, 1.0f, 0.75f};
    Tensor scattered = index_add_rows(x, dst, coeff, 3);
    std::vector<float> ref2(static_cast<std::size_t>(3) * d, 0.0f);
    for (int i = 0; i < rows; ++i)
      for (int j = 0; j < d; ++j)
        ref2[dst[i] * d + j] += coeff[i] * x.at(i, j);
    for (int r = 0; r < 3; ++r)
      for (int j = 0; j < d; ++j)
        ASSERT_EQ(scattered.at(r, j), ref2[r * d + j])
            << "index_add_rows d=" << d << " (" << r << "," << j << ")";
  }
}

TEST(TensorTest, NumelIsInt64ForHugeShapes) {
  // 100000 * 30000 = 3e9 overflows int32; numel must report it exactly.
  Shape huge{100000, 30000};
  EXPECT_EQ(huge.numel(), static_cast<std::int64_t>(3000000000LL));
  Shape negative_check{46341, 46341};  // 2147488281 > 2^31 - 1
  EXPECT_GT(negative_check.numel(), 0);
}

TEST(TensorTest, ConstGradAccessDoesNotAllocate) {
  Tensor t = Tensor::zeros({2, 3}, /*requires_grad=*/true);
  const Tensor& ct = t;
  EXPECT_FALSE(t.grad_allocated());
  EXPECT_EQ(ct.grad(), nullptr);       // const read must not materialize
  EXPECT_FALSE(t.grad_allocated());    // ... and must leave no trace
  float* g = t.grad();                 // mutable access materializes zeros
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(t.grad_allocated());
  EXPECT_EQ(ct.grad(), g);
  EXPECT_EQ(ct.grad()[0], 0.0f);
}

// --- Inference mode (tape-free forward) -------------------------------------

TEST(TensorTest, InferenceModeBitIdenticalToTrainModeForward) {
  // A forward chain exercising every op the GNN inference path uses:
  // embedding gather, matmul, fused bias+act, scatter add, layer norm,
  // segment pooling, log-softmax. The guard must change no bits.
  Rng rng(9001);
  Tensor table = Tensor::xavier({10, 16}, rng);
  Tensor w = Tensor::xavier({16, 16}, rng);
  Tensor b = Tensor::zeros({1, 16}, true);
  Tensor gamma = Tensor::full({1, 16}, 1.0f, true);
  Tensor beta = Tensor::zeros({1, 16}, true);
  Tensor head = Tensor::xavier({16, 5}, rng);
  Tensor head_b = Tensor::zeros({1, 5}, true);
  std::vector<int> idx{0, 3, 7, 2, 9, 5};
  std::vector<int> dst{0, 1, 2, 3, 4, 5};
  std::vector<float> coeff{1.0f, 0.5f, 1.0f, 0.25f, 1.0f, 2.0f};
  std::vector<int> seg{0, 0, 0, 1, 1, 1};

  auto run = [&] {
    Tensor h = embedding(table, idx);
    h = add_bias_act(matmul(h, w), b, Act::Relu);
    h = index_add_rows(h, dst, coeff, 6);
    h = layer_norm(h, gamma, beta);
    Tensor pooled = segment_mean(h, seg, 2);
    return log_softmax(add_bias_act(matmul(pooled, head), head_b, Act::None));
  };

  Tensor train_mode = run();
  EXPECT_TRUE(train_mode.requires_grad());
  Tensor infer_mode;
  {
    EXPECT_FALSE(inference_mode());
    InferenceGuard guard;
    EXPECT_TRUE(inference_mode());
    infer_mode = run();
  }
  EXPECT_FALSE(inference_mode());

  ASSERT_EQ(train_mode.numel(), infer_mode.numel());
  for (std::int64_t i = 0; i < train_mode.numel(); ++i)
    ASSERT_EQ(train_mode.data()[i], infer_mode.data()[i]) << "entry " << i;

  // Tape-free means exactly that: no parents, no closure, no grad state.
  auto node = infer_mode.node();
  EXPECT_FALSE(node->requires_grad);
  EXPECT_EQ(node->num_parents, 0);
  EXPECT_FALSE(static_cast<bool>(node->backward_fn));
  EXPECT_FALSE(infer_mode.grad_allocated());
  // And the parameters' gradient buffers were never materialized by it.
  EXPECT_FALSE(w.grad_allocated());
  EXPECT_FALSE(table.grad_allocated());
}

TEST(TensorTest, InferenceGuardNestsAndRestoresRecording) {
  Tensor a = Tensor::full({1, 1}, 2.0f, true);
  {
    InferenceGuard outer;
    {
      InferenceGuard inner;
      EXPECT_TRUE(inference_mode());
    }
    EXPECT_TRUE(inference_mode());  // inner exit restores outer, not "off"
    Tensor y = mul(a, a);
    EXPECT_FALSE(y.requires_grad());
  }
  // Recording resumes after the scope: backward works again.
  Tensor y = mul(a, a);
  ASSERT_TRUE(y.requires_grad());
  y.backward();
  EXPECT_NEAR(a.grad()[0], 4.0f, 1e-6f);
}

TEST(TensorTest, BackwardThroughSharedSubgraph) {
  // y = a*a used twice: gradients must accumulate once per use.
  Tensor a = Tensor::full({1, 1}, 3.0f, true);
  Tensor sq = mul(a, a);
  Tensor loss = add(sq, sq);  // d/da = 2 * 2a = 12
  loss.backward();
  EXPECT_NEAR(a.grad()[0], 12.0f, 1e-4f);
}

// --- Fused RGCN layer --------------------------------------------------------

/// The op chain rgcn_layer fuses, recorded node by node.
Tensor unfused_rgcn(const Tensor& h, const Tensor& self_weight,
                    const std::vector<Tensor>& relation_weights,
                    const std::vector<RelationEdges>& relations) {
  Tensor out = matmul(h, self_weight);
  for (std::size_t r = 0; r < relation_weights.size(); ++r) {
    const RelationEdges& edges = relations[r];
    if (edges.src.empty()) continue;
    Tensor messages = matmul(gather_rows(h, edges.src), relation_weights[r]);
    out = add(out, index_add_rows(messages, edges.dst, edges.coeff, h.rows()));
  }
  return relu(out);
}

Tensor copy_of(const Tensor& t, bool requires_grad) {
  return Tensor::from_data(t.shape(),
                           std::vector<float>(t.data(), t.data() + t.numel()),
                           requires_grad);
}

TEST(TensorTest, FusedRgcnLayerMatchesUnfusedChain) {
  for (int d : {32, 13}) {  // 13: every 8-wide loop ends in a scalar tail
    SCOPED_TRACE("d=" + std::to_string(d));
    constexpr int kNodes = 11;
    Rng rng(0xF05E + d);
    // Relation 0 has repeated destinations, relation 1 has no edges, and no
    // edge of any relation ends at node 10.
    std::vector<RelationEdges> relations(3);
    for (int i = 0; i < 23; ++i) {
      relations[0].src.push_back(i * 7 % kNodes);
      relations[0].dst.push_back(i * 3 % 10);
    }
    for (int i = 0; i < 6; ++i) {
      relations[2].src.push_back(10 - i);
      relations[2].dst.push_back(i * 4 % 10);
    }
    for (RelationEdges& rel : relations) {
      std::vector<int> in_degree(kNodes, 0);
      for (int v : rel.dst) ++in_degree[v];
      for (int v : rel.dst) rel.coeff.push_back(1.0f / in_degree[v]);
    }

    Tensor h_init = Tensor::xavier({kNodes, d}, rng);
    for (int j = 0; j < d; ++j) h_init.data()[4 * d + j] = 0.0f;  // zero row
    h_init.data()[1] = -0.0f;
    h_init.data()[2 * d + 5] = -0.0f;
    // Column 0 of every weight is zero, so that pre-activation column sits
    // at exactly 0 for every node: relu's derivative at its boundary.
    std::vector<Tensor> w_init;
    for (int w = 0; w < 4; ++w) {
      w_init.push_back(Tensor::xavier({d, d}, rng));
      for (int l = 0; l < d; ++l) w_init.back().data()[l * d] = 0.0f;
    }
    // Upstream weights for the loss, with signed zeros, so the incoming
    // gradient holds +0 and -0 as well.
    Tensor upstream = copy_of(Tensor::xavier({kNodes, d}, rng), false);
    upstream.data()[d + 3] = -0.0f;
    upstream.data()[2] = 0.0f;

    struct Run {
      Tensor h, y;
      std::vector<Tensor> w;  // W0, W_0, W_1, W_2
    };
    auto run = [&](bool fused) {
      Run r;
      r.h = copy_of(h_init, true);
      for (const Tensor& w : w_init) r.w.push_back(copy_of(w, true));
      std::vector<Tensor> rel_w(r.w.begin() + 1, r.w.end());
      r.y = fused ? rgcn_layer(r.h, r.w[0], rel_w, relations)
                  : unfused_rgcn(r.h, r.w[0], rel_w, relations);
      // The residual add runs backward first, so h.grad already holds its
      // contribution when the layer's backward accumulates into it.
      sum_all(mul(add(r.y, r.h), upstream)).backward();
      return r;
    };
    Run ref = run(false);
    Run fused = run(true);

    // One tape node whose inputs are h, W0 and the two non-empty
    // relations' weights.
    EXPECT_EQ(fused.y.node()->num_parents, 4);
    ASSERT_TRUE(same_bits(ref.y.data(), fused.y.data(), ref.y.numel()));
    ASSERT_TRUE(ref.h.grad_allocated() && fused.h.grad_allocated());
    EXPECT_TRUE(same_bits(ref.h.grad(), fused.h.grad(), ref.h.numel()))
        << "h.grad";
    for (int w : {0, 1, 3}) {
      ASSERT_TRUE(ref.w[w].grad_allocated() && fused.w[w].grad_allocated())
          << "weight " << w;
      EXPECT_TRUE(
          same_bits(ref.w[w].grad(), fused.w[w].grad(), ref.w[w].numel()))
          << "weight " << w;
    }
    // The edgeless relation's weight never gets a gradient buffer.
    EXPECT_FALSE(ref.w[2].grad_allocated());
    EXPECT_FALSE(fused.w[2].grad_allocated());

    // Tape-free under InferenceGuard, with the same output bits.
    Tensor untaped;
    {
      InferenceGuard guard;
      untaped = rgcn_layer(fused.h, fused.w[0],
                           {fused.w[1], fused.w[2], fused.w[3]}, relations);
    }
    ASSERT_TRUE(same_bits(fused.y.data(), untaped.data(), fused.y.numel()));
    EXPECT_FALSE(untaped.requires_grad());
    EXPECT_EQ(untaped.node()->num_parents, 0);
    EXPECT_FALSE(static_cast<bool>(untaped.node()->backward_fn));
  }
}

}  // namespace
}  // namespace irgnn::tensor
