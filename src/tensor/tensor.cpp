#include "tensor/tensor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "support/simd.h"
#include "support/thread_pool.h"
#include "tensor/gemm.h"

namespace irgnn::tensor {

using detail::Node;
using simd::v8f;

namespace {

std::atomic<int> g_kernel_parallelism{0};  // <= 0: all global-pool workers

/// Per-thread tape switch; see InferenceGuard. Thread-local because a pool
/// worker running an inference shard must not stop a concurrent training
/// shard on another worker from recording.
thread_local bool t_inference_mode = false;

/// Monotone epoch for backward() traversals; see Node::visit_mark.
std::atomic<std::uint64_t> g_visit_epoch{0};

/// Runs fn(row_begin, row_end) over blocks of rows, in parallel when `flops`
/// justifies it. Blocks are disjoint, so any per-row-owned output keeps the
/// bit-identical-across-thread-counts contract. Templated (not
/// std::function) so the serial path inlines and the parallel path passes a
/// borrowed FunctionRef — no allocation either way.
template <typename Fn>
void for_row_blocks(std::int64_t rows, std::int64_t flops, const Fn& fn) {
  if (flops < kParallelFlops || rows <= kRowBlock) {
    fn(static_cast<std::int64_t>(0), rows);
    return;
  }
  std::int64_t blocks = (rows + kRowBlock - 1) / kRowBlock;
  support::ThreadPool::global().parallel_for(
      0, blocks, g_kernel_parallelism.load(), [&](std::int64_t b) {
        fn(b * kRowBlock, std::min(rows, (b + 1) * kRowBlock));
      });
}

/// How a new node's data starts: zero-filled, or unwritten for an op that
/// writes every element before anything reads it.
enum class Output { kZeroed, kOverwritten };

std::shared_ptr<Node> make_node(Shape shape, Output output = Output::kZeroed) {
  auto node = support::make_pooled<Node>();
  node->shape = shape;
  const auto numel = static_cast<std::size_t>(shape.numel());
  if (output == Output::kZeroed)
    node->data.assign(numel, 0.0f);
  else
    node->data.resize(numel);
  return node;
}

/// Output node wired to parents; requires_grad propagates. Under an
/// InferenceGuard the node stays tape-free: no parents, no closure, no grad
/// propagation — parents' buffers can recycle the moment their handles die.
std::shared_ptr<Node> make_op_node(
    Shape shape, const std::shared_ptr<Node>* parents, std::size_t count,
    support::InlineFunction<void(Node&), 64> backward,
    Output output = Output::kZeroed) {
  auto node = make_node(shape, output);
  if (t_inference_mode) return node;
  for (std::size_t p = 0; p < count; ++p)
    node->requires_grad |= parents[p]->requires_grad;
  if (node->requires_grad) {
    // Hard check, not an assert: overflowing the fixed parent array would
    // corrupt the adjacent inline closure storage in NDEBUG builds.
    if (count > Node::kMaxParents)
      throw std::logic_error("op exceeds Node::kMaxParents inputs");
    for (std::size_t p = 0; p < count; ++p) node->parents[p] = parents[p];
    node->num_parents = static_cast<int>(count);
    node->backward_fn = std::move(backward);
  }
  return node;
}

std::shared_ptr<Node> make_op_node(
    Shape shape, std::initializer_list<std::shared_ptr<Node>> parents,
    support::InlineFunction<void(Node&), 64> backward,
    Output output = Output::kZeroed) {
  return make_op_node(shape, parents.begin(), parents.size(),
                      std::move(backward), output);
}

}  // namespace

void set_kernel_parallelism(int max_threads) {
  g_kernel_parallelism.store(max_threads > 0 ? max_threads : 0);
}

int kernel_parallelism() { return g_kernel_parallelism.load(); }

InferenceGuard::InferenceGuard() : prev_(t_inference_mode) {
  t_inference_mode = true;
}

InferenceGuard::~InferenceGuard() { t_inference_mode = prev_; }

bool inference_mode() { return t_inference_mode; }

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  auto node = make_node(shape);
  node->requires_grad = requires_grad;
  return Tensor(node);
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  auto node = make_node(shape);
  std::fill(node->data.begin(), node->data.end(), value);
  node->requires_grad = requires_grad;
  return Tensor(node);
}

Tensor Tensor::from_data(Shape shape, std::vector<float> values,
                         bool requires_grad) {
  assert(static_cast<std::int64_t>(values.size()) == shape.numel());
  // Bypass make_node's zero fill: assign into the empty pooled buffer so
  // the data is written once (replica cloning calls this per shard).
  auto node = support::make_pooled<Node>();
  node->shape = shape;
  node->data.assign(values.begin(), values.end());
  node->requires_grad = requires_grad;
  return Tensor(node);
}

Tensor Tensor::xavier(Shape shape, Rng& rng) {
  auto node = make_node(shape);
  float limit = std::sqrt(6.0f / static_cast<float>(shape.rows + shape.cols));
  for (float& v : node->data)
    v = static_cast<float>(rng.uniform(-limit, limit));
  node->requires_grad = true;
  return Tensor(node);
}

Tensor Tensor::kaiming(Shape shape, Rng& rng) {
  auto node = make_node(shape);
  float stddev = std::sqrt(2.0f / static_cast<float>(shape.rows));
  for (float& v : node->data)
    v = static_cast<float>(rng.normal(0.0, stddev));
  node->requires_grad = true;
  return Tensor(node);
}

void Tensor::backward() {
  if (!node_->requires_grad)
    throw std::logic_error("backward() on a non-grad tensor");
  // Topological order via iterative DFS. Visited state is an epoch stamp on
  // the node (no per-call hash set) and the work vectors recycle through the
  // arena, so the traversal itself is allocation-free once warm. Index into
  // the stack rather than holding a reference: pushing may reallocate.
  const std::uint64_t epoch =
      g_visit_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  support::PoolVector<Node*> order;
  support::PoolVector<std::pair<Node*, int>> stack;
  stack.push_back({node_.get(), 0});
  node_->visit_mark = epoch;
  while (!stack.empty()) {
    std::size_t top = stack.size() - 1;
    Node* node = stack[top].first;
    if (stack[top].second < node->num_parents) {
      Node* child = node->parents[stack[top].second++].get();
      if (child->requires_grad && child->visit_mark != epoch) {
        child->visit_mark = epoch;
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  node_->ensure_grad();
  std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
  node_->grad[0] = 1.0f;  // seed (scalar roots)
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn) {
      for (int p = 0; p < (*it)->num_parents; ++p)
        if ((*it)->parents[p]->requires_grad) (*it)->parents[p]->ensure_grad();
      (*it)->backward_fn(**it);
    }
  }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

namespace {

/// Packs src[rows, cols] transposed into dst[cols, rows]. dst recycles
/// through the arena (callers hold it only for the kernel's duration).
void transpose_into(const float* src, std::int64_t rows, std::int64_t cols,
                    support::PoolVector<float>& dst) {
  dst.resize(static_cast<std::size_t>(rows * cols));
  constexpr std::int64_t kTile = 32;
  for (std::int64_t i0 = 0; i0 < rows; i0 += kTile)
    for (std::int64_t j0 = 0; j0 < cols; j0 += kTile)
      for (std::int64_t i = i0; i < std::min(rows, i0 + kTile); ++i)
        for (std::int64_t j = j0; j < std::min(cols, j0 + kTile); ++j)
          dst[j * rows + i] = src[i * cols + j];
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.rows());
  const std::int64_t m = a.rows();
  const std::int64_t k = a.cols();
  const std::int64_t n = b.cols();
  const std::int64_t flops = m * k * n;
  auto node = make_op_node(
      {static_cast<int>(m), static_cast<int>(n)}, {a.node(), b.node()},
      [m, k, n, flops](Node& out) {
        Node& A = *out.parents[0];
        Node& B = *out.parents[1];
        const float* g = out.grad.data();
        if (A.requires_grad) {
          // dA[i,l] += sum_j g[i,j] * B[l,j], the reduction over j. The
          // kernel reads its right operand as [n, k], so B is transposed
          // once per call.
          float* ga = A.grad.data();
          support::PoolVector<float> bt;  // [n, k]
          transpose_into(B.data.data(), k, n, bt);
          for_row_blocks(m, flops, [&](std::int64_t i0, std::int64_t i1) {
            detail::gemm_dot_cols<true>(g + i0 * n, n, bt.data(), k, i1 - i0,
                                        k, n, ga + i0 * k, k);
          });
        }
        if (B.requires_grad) {
          // dB[l,:] += A[i,l] * g[i,:], i ascending, with A read in place;
          // parallel over dB rows, with each tile's column vectors held in
          // registers across the whole i loop.
          float* gb = B.grad.data();
          const float* pa = A.data.data();
          for_row_blocks(k, flops, [&](std::int64_t l0, std::int64_t l1) {
            detail::gemm_axpy(detail::NaturalA{pa + l0, k}, g, n, l1 - l0, m,
                              n, gb + l0 * n, n);
          });
        }
      },
      Output::kOverwritten);
  // Forward: B is read in place, each output still the canonical 8-wide
  // tree dot product of its A row and B column.
  const float* pa = a.data();
  float* pc = node->data.data();
  const float* pb = b.data();
  for_row_blocks(m, flops, [&](std::int64_t i0, std::int64_t i1) {
    detail::gemm_dot_cols<false>(pa + i0 * k, k, pb, n, i1 - i0, n, k,
                                 pc + i0 * n, n);
  });
  return Tensor(node);
}

namespace {

Tensor elementwise(const Tensor& a, const Tensor& b, float sign_b,
                   bool product) {
  assert(a.shape() == b.shape());
  auto node = make_op_node(
      a.shape(), {a.node(), b.node()},
      [sign_b, product](Node& out) {
        Node& A = *out.parents[0];
        Node& B = *out.parents[1];
        const std::size_t n = out.data.size();
        for (std::size_t i = 0; i < n; ++i) {
          float g = out.grad[i];
          if (product) {
            if (A.requires_grad) A.grad[i] += g * B.data[i];
            if (B.requires_grad) B.grad[i] += g * A.data[i];
          } else {
            if (A.requires_grad) A.grad[i] += g;
            if (B.requires_grad) B.grad[i] += g * sign_b;
          }
        }
      });
  const std::size_t n = node->data.size();
  for (std::size_t i = 0; i < n; ++i)
    node->data[i] = product ? a.data()[i] * b.data()[i]
                            : a.data()[i] + sign_b * b.data()[i];
  return Tensor(node);
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return elementwise(a, b, 1.0f, false);
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return elementwise(a, b, -1.0f, false);
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return elementwise(a, b, 0.0f, true);
}

Tensor add_bias(const Tensor& a, const Tensor& b) {
  return add_bias_act(a, b, Act::None);
}

namespace {

inline float apply_act(float x, Act act) {
  switch (act) {
    case Act::Relu:
      return x > 0.0f ? x : 0.0f;
    case Act::Tanh:
      return std::tanh(x);
    case Act::Sigmoid:
      return 1.0f / (1.0f + std::exp(-x));
    case Act::None:
      break;
  }
  return x;
}

/// d act / d pre-activation, expressed through the activation's own output y
/// (all three activations allow that, which spares caching the input).
inline float act_derivative(float y, Act act) {
  switch (act) {
    case Act::Relu:
      return y > 0.0f ? 1.0f : 0.0f;
    case Act::Tanh:
      return 1.0f - y * y;
    case Act::Sigmoid:
      return y * (1.0f - y);
    case Act::None:
      break;
  }
  return 1.0f;
}

/// y[0..n) = act(a[0..n) + b[0..n)). The add is 8-wide; relu stays 8-wide
/// via max (bit-identical to the scalar `x > 0 ? x : 0`), tanh/sigmoid
/// transform the stored sums with scalar libm calls.
void bias_act_row(const float* a, const float* b, float* y, std::int64_t n,
                  Act act) {
  std::int64_t j = 0;
  if (act == Act::Relu) {
    v8f zero = v8f::zero();
    for (; j + simd::kLanes <= n; j += simd::kLanes)
      v8f::max(v8f::load(a + j) + v8f::load(b + j), zero).store(y + j);
  } else {
    for (; j + simd::kLanes <= n; j += simd::kLanes)
      (v8f::load(a + j) + v8f::load(b + j)).store(y + j);
  }
  for (; j < n; ++j) y[j] = apply_act(a[j] + b[j], act);
  if (act == Act::Tanh || act == Act::Sigmoid) {
    // The vector blocks above stored the raw sums; finish them scalar. The
    // tail already applied the activation.
    for (std::int64_t t = 0; t < n - (n % simd::kLanes); ++t)
      y[t] = apply_act(y[t], act);
  }
}

/// gd[0..8) = g * dact(y) for one 8-lane block, matching act_derivative's
/// scalar expressions lane for lane (same multiplication association).
inline v8f act_backward_block(v8f g, v8f y, Act act) {
  switch (act) {
    case Act::Relu:
      return v8f::where_gt_zero(y, g);
    case Act::Tanh:
      return g * (v8f::broadcast(1.0f) - y * y);
    case Act::Sigmoid:
      return g * (y * (v8f::broadcast(1.0f) - y));
    case Act::None:
      break;
  }
  return g;
}

}  // namespace

Tensor add_bias_act(const Tensor& a, const Tensor& b, Act act) {
  assert(b.rows() == 1 && b.cols() == a.cols());
  const std::int64_t m = a.rows();
  const std::int64_t n = a.cols();
  const std::int64_t work = m * n;
  auto node = make_op_node(
      {static_cast<int>(m), static_cast<int>(n)}, {a.node(), b.node()},
      [m, n, act, work](Node& out) {
        Node& A = *out.parents[0];
        Node& B = *out.parents[1];
        // Partition by *columns*: each column owns its bias-gradient slot, so
        // the row sum stays an ordered (i ascending) deterministic reduction
        // inside one work item. Within a column span the update is 8-wide;
        // the per-(i,j) value never depends on the span boundaries.
        for_row_blocks(n, work, [&](std::int64_t j0, std::int64_t j1) {
          for (std::int64_t i = 0; i < m; ++i) {
            const float* grow = out.grad.data() + i * n;
            const float* yrow = out.data.data() + i * n;
            float* garow = A.requires_grad ? A.grad.data() + i * n : nullptr;
            float* gb = B.requires_grad ? B.grad.data() : nullptr;
            std::int64_t j = j0;
            for (; j + simd::kLanes <= j1; j += simd::kLanes) {
              v8f gd = act_backward_block(v8f::load(grow + j),
                                          v8f::load(yrow + j), act);
              if (garow != nullptr)
                (v8f::load(garow + j) + gd).store(garow + j);
              if (gb != nullptr) (v8f::load(gb + j) + gd).store(gb + j);
            }
            for (; j < j1; ++j) {
              float gd = grow[j] * act_derivative(yrow[j], act);
              if (garow != nullptr) garow[j] += gd;
              if (gb != nullptr) gb[j] += gd;
            }
          }
        });
      },
      Output::kOverwritten);
  const float* pa = a.data();
  const float* pb = b.data();
  float* py = node->data.data();
  for_row_blocks(m, work, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i)
      bias_act_row(pa + i * n, pb, py + i * n, n, act);
  });
  return Tensor(node);
}

Tensor scale(const Tensor& a, float s) {
  auto node = make_op_node(a.shape(), {a.node()}, [s](Node& out) {
    Node& A = *out.parents[0];
    if (!A.requires_grad) return;
    for (std::size_t i = 0; i < out.data.size(); ++i)
      A.grad[i] += s * out.grad[i];
  });
  for (std::size_t i = 0; i < node->data.size(); ++i)
    node->data[i] = s * a.data()[i];
  return Tensor(node);
}

Tensor relu(const Tensor& a) {
  auto node = make_op_node(a.shape(), {a.node()}, [](Node& out) {
    Node& A = *out.parents[0];
    if (!A.requires_grad) return;
    for (std::size_t i = 0; i < out.data.size(); ++i)
      if (out.data[i] > 0.0f) A.grad[i] += out.grad[i];
  });
  for (std::size_t i = 0; i < node->data.size(); ++i)
    node->data[i] = std::max(0.0f, a.data()[i]);
  return Tensor(node);
}

Tensor tanh_t(const Tensor& a) {
  auto node = make_op_node(a.shape(), {a.node()}, [](Node& out) {
    Node& A = *out.parents[0];
    if (!A.requires_grad) return;
    for (std::size_t i = 0; i < out.data.size(); ++i)
      A.grad[i] += (1.0f - out.data[i] * out.data[i]) * out.grad[i];
  });
  for (std::size_t i = 0; i < node->data.size(); ++i)
    node->data[i] = std::tanh(a.data()[i]);
  return Tensor(node);
}

Tensor sigmoid(const Tensor& a) {
  auto node = make_op_node(a.shape(), {a.node()}, [](Node& out) {
    Node& A = *out.parents[0];
    if (!A.requires_grad) return;
    for (std::size_t i = 0; i < out.data.size(); ++i)
      A.grad[i] += out.data[i] * (1.0f - out.data[i]) * out.grad[i];
  });
  for (std::size_t i = 0; i < node->data.size(); ++i)
    node->data[i] = 1.0f / (1.0f + std::exp(-a.data()[i]));
  return Tensor(node);
}

Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps) {
  assert(gamma.rows() == 1 && gamma.cols() == x.cols());
  assert(beta.rows() == 1 && beta.cols() == x.cols());
  const std::int64_t m = x.rows();
  const std::int64_t n = x.cols();
  // Cache per-row mean and inverse stddev for the backward pass.
  auto stats = support::make_pooled<support::PoolVector<float>>(2 * m);
  auto node = make_op_node(
      {static_cast<int>(m), static_cast<int>(n)},
      {x.node(), gamma.node(), beta.node()},
      [m, n, stats](Node& out) {
        Node& X = *out.parents[0];
        Node& G = *out.parents[1];
        Node& B = *out.parents[2];
        const v8f vn = v8f::broadcast(static_cast<float>(n));
        for (std::int64_t i = 0; i < m; ++i) {
          const float mean = (*stats)[2 * i];
          const float inv_std = (*stats)[2 * i + 1];
          const v8f vmean = v8f::broadcast(mean);
          const v8f vinv = v8f::broadcast(inv_std);
          const float* xrow = X.data.data() + i * n;
          const float* grow = out.grad.data() + i * n;
          // xhat_j = (x_j - mean) * inv_std; y_j = gamma_j * xhat_j + beta_j.
          // The two row sums fold 8-lane blocks through the fixed tree, then
          // tail elements in order — one canonical reduction per row.
          v8f acc_dy_g = v8f::zero();
          v8f acc_dy_g_xhat = v8f::zero();
          std::int64_t j = 0;
          for (; j + simd::kLanes <= n; j += simd::kLanes) {
            v8f xhat = (v8f::load(xrow + j) - vmean) * vinv;
            v8f dy = v8f::load(grow + j);
            v8f dy_g = dy * v8f::load(G.data.data() + j);
            acc_dy_g += dy_g;
            acc_dy_g_xhat += dy_g * xhat;
            if (G.requires_grad)
              (v8f::load(G.grad.data() + j) + dy * xhat)
                  .store(G.grad.data() + j);
            if (B.requires_grad)
              (v8f::load(B.grad.data() + j) + dy).store(B.grad.data() + j);
          }
          float sum_dy_g = acc_dy_g.hsum();
          float sum_dy_g_xhat = acc_dy_g_xhat.hsum();
          for (; j < n; ++j) {
            float xhat = (xrow[j] - mean) * inv_std;
            float dy = grow[j];
            float dy_g = dy * G.data[j];
            sum_dy_g += dy_g;
            sum_dy_g_xhat += dy_g * xhat;
            if (G.requires_grad) G.grad[j] += dy * xhat;
            if (B.requires_grad) B.grad[j] += dy;
          }
          if (X.requires_grad) {
            float* gx = X.grad.data() + i * n;
            const v8f vs1 = v8f::broadcast(sum_dy_g);
            const v8f vs2 = v8f::broadcast(sum_dy_g_xhat);
            j = 0;
            for (; j + simd::kLanes <= n; j += simd::kLanes) {
              v8f xhat = (v8f::load(xrow + j) - vmean) * vinv;
              v8f dy_g = v8f::load(grow + j) * v8f::load(G.data.data() + j);
              v8f num = (vs1 + xhat * vs2) / vn;
              (v8f::load(gx + j) + vinv * (dy_g - num)).store(gx + j);
            }
            for (; j < n; ++j) {
              float xhat = (xrow[j] - mean) * inv_std;
              gx[j] += inv_std *
                       (grow[j] * G.data[j] -
                        (sum_dy_g + xhat * sum_dy_g_xhat) /
                            static_cast<float>(n));
            }
          }
        }
      },
      Output::kOverwritten);
  // Rows normalize independently (stats slots are per-row too). Mean and
  // variance use the canonical tree reductions of support/simd.h.
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pbeta = beta.data();
  float* py = node->data.data();
  for_row_blocks(m, m * n * 3, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* xrow = px + i * n;
      float mean = simd::sum(xrow, n) / static_cast<float>(n);
      float var = simd::sum_sq_diff(xrow, mean, n) / static_cast<float>(n);
      float inv_std = 1.0f / std::sqrt(var + eps);
      (*stats)[2 * i] = mean;
      (*stats)[2 * i + 1] = inv_std;
      float* yrow = py + i * n;
      const v8f vmean = v8f::broadcast(mean);
      const v8f vinv = v8f::broadcast(inv_std);
      std::int64_t j = 0;
      for (; j + simd::kLanes <= n; j += simd::kLanes) {
        v8f xhat = (v8f::load(xrow + j) - vmean) * vinv;
        (v8f::load(pg + j) * xhat + v8f::load(pbeta + j)).store(yrow + j);
      }
      for (; j < n; ++j) {
        float xhat = (xrow[j] - mean) * inv_std;
        yrow[j] = pg[j] * xhat + pbeta[j];
      }
    }
  });
  return Tensor(node);
}

Tensor embedding(const Tensor& table, const std::vector<int>& indices) {
  const std::int64_t d = table.cols();
  const std::int64_t m = static_cast<std::int64_t>(indices.size());
  // The index copy exists only for the backward closure; skip it when the
  // tape is off or the table is frozen (the closure is dropped either way).
  std::shared_ptr<support::PoolVector<int>> idx;
  if (!inference_mode() && table.requires_grad())
    idx = support::make_pooled<support::PoolVector<int>>(indices.begin(),
                                                         indices.end());
  auto node = make_op_node({static_cast<int>(m), static_cast<int>(d)},
                           {table.node()}, [d, m, idx](Node& out) {
                             Node& T = *out.parents[0];
                             if (!T.requires_grad) return;
                             for (std::int64_t i = 0; i < m; ++i)
                               simd::add_inplace(
                                   T.grad.data() + (*idx)[i] * d,
                                   out.grad.data() + i * d, d);
                           });
  for (std::int64_t i = 0; i < m; ++i) {
    assert(indices[i] >= 0 && indices[i] < table.rows());
    std::copy(table.data() + indices[i] * d,
              table.data() + (indices[i] + 1) * d, node->data.data() + i * d);
  }
  return Tensor(node);
}

Tensor gather_rows(const Tensor& x, const std::vector<int>& index) {
  return embedding(x, index);  // identical semantics
}

Tensor index_add_rows(const Tensor& x, const std::vector<int>& dst,
                      const std::vector<float>& coeff, int num_rows) {
  assert(dst.size() == static_cast<std::size_t>(x.rows()));
  assert(coeff.size() == dst.size());
  const std::int64_t d = x.cols();
  const std::int64_t e = x.rows();
  // Backward-only copies (forward reads the caller's vectors directly).
  std::shared_ptr<support::PoolVector<int>> dst_copy;
  std::shared_ptr<support::PoolVector<float>> coeff_copy;
  if (!inference_mode() && x.requires_grad()) {
    dst_copy =
        support::make_pooled<support::PoolVector<int>>(dst.begin(), dst.end());
    coeff_copy = support::make_pooled<support::PoolVector<float>>(
        coeff.begin(), coeff.end());
  }
  auto node = make_op_node(
      {num_rows, static_cast<int>(d)}, {x.node()},
      [d, e, dst_copy, coeff_copy](Node& out) {
        Node& X = *out.parents[0];
        if (!X.requires_grad) return;
        // Each edge owns its x-gradient row; destination rows are only read.
        for_row_blocks(e, e * d, [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i)
            simd::axpy(X.grad.data() + i * d, (*coeff_copy)[i],
                       out.grad.data() + (*dst_copy)[i] * d, d);
        });
      });
  for (std::int64_t i = 0; i < e; ++i) {
    assert(dst[i] >= 0 && dst[i] < num_rows);
    simd::axpy(node->data.data() + dst[i] * d, coeff[i], x.data() + i * d, d);
  }
  return Tensor(node);
}

namespace {

/// What rgcn_layer's backward needs besides its parents and its output: the
/// edge lists of the relations that have edges, concatenated in relation
/// order. Recorded relation j owns edges [begin[j], begin[j + 1]) and its
/// weight is parent 2 + j.
struct RgcnTape {
  support::PoolVector<int> src;
  support::PoolVector<int> dst;
  support::PoolVector<float> coeff;
  std::array<std::int64_t, kMaxRgcnRelations + 1> begin{};
  int num_relations = 0;
  std::int64_t max_edges = 0;
};

/// rgcn_layer's backward: the unfused chain's node backwards in the order
/// Tensor::backward() would run them (relu, then each relation from last to
/// first, then the self matmul), with their arithmetic unchanged.
void rgcn_backward(Node& out, std::int64_t m, std::int64_t k, std::int64_t n,
                   const RgcnTape& tape) {
  Node& H = *out.parents[0];
  Node& W0 = *out.parents[1];
  // Gradient at the pre-activation: relu's backward leaves 0 + G (y > 0) or
  // 0 in its zeroed input gradient. Each add node of the chain passes that
  // on as 0 + g, which is g bit for bit (g is never -0), so this one buffer
  // is what every aggregate and the self matmul receive.
  support::PoolVector<float> g(static_cast<std::size_t>(m * n));
  {
    const float* y = out.data.data();
    const float* gy = out.grad.data();
    const std::int64_t size = m * n;
    const v8f zero = v8f::zero();
    std::int64_t i = 0;
    for (; i + simd::kLanes <= size; i += simd::kLanes)
      v8f::where_gt_zero(v8f::load(y + i), zero + v8f::load(gy + i))
          .store(g.data() + i);
    for (; i < size; ++i) g[i] = y[i] > 0.0f ? 0.0f + gy[i] : 0.0f;
  }
  const float* pg = g.data();
  // The dA GEMMs read each [k, n] weight transposed, as [n, k].
  support::PoolVector<float> wt;
  if (tape.num_relations > 0) {
    const std::int64_t cap = tape.max_edges;
    support::PoolVector<float> gm(static_cast<std::size_t>(cap * n));
    support::PoolVector<float> drows(static_cast<std::size_t>(cap * k));
    for (int j = tape.num_relations - 1; j >= 0; --j) {
      Node& W = *out.parents[2 + j];
      const std::int64_t e0 = tape.begin[j];
      const std::int64_t e = tape.begin[j + 1] - e0;
      const int* src = tape.src.data() + e0;
      const int* dst = tape.dst.data() + e0;
      const float* coeff = tape.coeff.data() + e0;
      const std::int64_t flops = e * k * n;
      // index_add_rows backward into the messages' zeroed gradient.
      std::fill(gm.begin(), gm.begin() + e * n, 0.0f);
      for_row_blocks(e, e * n, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i)
          simd::axpy(gm.data() + i * n, coeff[i],
                     pg + static_cast<std::int64_t>(dst[i]) * n, n);
      });
      if (W.requires_grad) {
        // The message matmul's dB: dW_r[l,:] += rows[i,l] * gm[i,:], i
        // ascending, with the gathered rows read in place from h
        // (rows[i,l] = h[src[i],l]).
        const float* ph = H.data.data();
        for_row_blocks(k, flops, [&](std::int64_t l0, std::int64_t l1) {
          detail::gemm_axpy(detail::GatheredA{ph + l0, k, src}, gm.data(), n,
                            l1 - l0, e, n, W.grad.data() + l0 * n, n);
        });
      }
      if (H.requires_grad) {
        // The message matmul's dA into the gathered rows' zeroed gradient,
        // then the gather's scatter-add into h.grad in edge order.
        std::fill(drows.begin(), drows.begin() + e * k, 0.0f);
        transpose_into(W.data.data(), k, n, wt);
        for_row_blocks(e, flops, [&](std::int64_t i0, std::int64_t i1) {
          detail::gemm_dot_cols<true>(gm.data() + i0 * n, n, wt.data(), k,
                                      i1 - i0, k, n, drows.data() + i0 * k, k);
        });
        for (std::int64_t i = 0; i < e; ++i)
          simd::add_inplace(
              H.grad.data() + static_cast<std::int64_t>(src[i]) * k,
              drows.data() + i * k, k);
      }
    }
  }
  // The self matmul is the chain's first node, so its backward runs last.
  const std::int64_t flops = m * k * n;
  if (H.requires_grad) {
    transpose_into(W0.data.data(), k, n, wt);
    for_row_blocks(m, flops, [&](std::int64_t i0, std::int64_t i1) {
      detail::gemm_dot_cols<true>(pg + i0 * n, n, wt.data(), k, i1 - i0, k, n,
                                  H.grad.data() + i0 * k, k);
    });
  }
  if (W0.requires_grad) {
    const float* ph = H.data.data();
    for_row_blocks(k, flops, [&](std::int64_t l0, std::int64_t l1) {
      detail::gemm_axpy(detail::NaturalA{ph + l0, k}, pg, n, l1 - l0, m, n,
                        W0.grad.data() + l0 * n, n);
    });
  }
}

}  // namespace

Tensor rgcn_layer(const Tensor& h, const Tensor& self_weight,
                  const std::vector<Tensor>& relation_weights,
                  const std::vector<RelationEdges>& relations) {
  assert(h.cols() == self_weight.rows());
  assert(relations.size() >= relation_weights.size());
  // Hard check: the parent array below has room for this many relations.
  if (relation_weights.size() > static_cast<std::size_t>(kMaxRgcnRelations))
    throw std::logic_error("rgcn_layer exceeds kMaxRgcnRelations relations");
  const std::int64_t m = h.rows();
  const std::int64_t k = h.cols();
  const std::int64_t n = self_weight.cols();
  const std::size_t num_relations = relation_weights.size();
  std::int64_t max_edges = 0;
  for (std::size_t r = 0; r < num_relations; ++r)
    max_edges = std::max(
        max_edges, static_cast<std::int64_t>(relations[r].src.size()));

  // Tape inputs: h, W0, then the weight of every relation that has edges —
  // an edgeless relation contributes nothing, so its weight gets no
  // gradient buffer, as in the unfused chain. The edge lists are copied
  // only when something will run backward.
  std::array<std::shared_ptr<Node>, Node::kMaxParents> parents;
  std::size_t num_parents = 0;
  std::shared_ptr<RgcnTape> tape;
  if (!inference_mode()) {
    parents[num_parents++] = h.node();
    parents[num_parents++] = self_weight.node();
    bool requires_grad = h.requires_grad() || self_weight.requires_grad();
    std::size_t total_edges = 0;
    for (std::size_t r = 0; r < num_relations; ++r) {
      if (relations[r].src.empty()) continue;
      parents[num_parents++] = relation_weights[r].node();
      requires_grad |= relation_weights[r].requires_grad();
      total_edges += relations[r].src.size();
    }
    if (requires_grad) {
      tape = support::make_pooled<RgcnTape>();
      tape->src.reserve(total_edges);
      tape->dst.reserve(total_edges);
      tape->coeff.reserve(total_edges);
      for (std::size_t r = 0; r < num_relations; ++r) {
        const RelationEdges& edges = relations[r];
        if (edges.src.empty()) continue;
        tape->src.insert(tape->src.end(), edges.src.begin(), edges.src.end());
        tape->dst.insert(tape->dst.end(), edges.dst.begin(), edges.dst.end());
        tape->coeff.insert(tape->coeff.end(), edges.coeff.begin(),
                           edges.coeff.end());
        tape->begin[++tape->num_relations] =
            static_cast<std::int64_t>(tape->src.size());
      }
      tape->max_edges = max_edges;
    }
  }
  auto node = make_op_node(
      {static_cast<int>(m), static_cast<int>(n)}, parents.data(), num_parents,
      [m, k, n, tape](Node& out) { rgcn_backward(out, m, k, n, *tape); },
      Output::kOverwritten);

  // Self term h W0, exactly matmul's forward.
  const float* ph = h.data();
  float* py = node->data.data();
  for_row_blocks(m, m * k * n, [&](std::int64_t i0, std::int64_t i1) {
    detail::gemm_dot_cols<false>(ph + i0 * k, k, self_weight.data(), n,
                                 i1 - i0, n, k, py + i0 * n, n);
  });
  if (max_edges > 0) {
    support::PoolVector<float> rows(static_cast<std::size_t>(max_edges * k));
    support::PoolVector<float> msg(static_cast<std::size_t>(max_edges * n));
    support::PoolVector<float> agg(static_cast<std::size_t>(m * n));
    for (std::size_t r = 0; r < num_relations; ++r) {
      const RelationEdges& edges = relations[r];
      const std::int64_t e = static_cast<std::int64_t>(edges.src.size());
      if (e == 0) continue;
      assert(edges.dst.size() == edges.src.size());
      assert(edges.coeff.size() == edges.src.size());
      // gather_rows then matmul, a row block at a time.
      const float* pw = relation_weights[r].data();
      for_row_blocks(e, e * k * n, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          assert(edges.src[i] >= 0 && edges.src[i] < m);
          const float* hrow = ph + static_cast<std::int64_t>(edges.src[i]) * k;
          std::copy(hrow, hrow + k, rows.data() + i * k);
        }
        detail::gemm_dot_cols<false>(rows.data() + i0 * k, k, pw, n, i1 - i0,
                                     n, k, msg.data() + i0 * n, n);
      });
      // index_add_rows into a zeroed aggregate in edge order, then the add.
      std::fill(agg.begin(), agg.end(), 0.0f);
      for (std::int64_t i = 0; i < e; ++i) {
        assert(edges.dst[i] >= 0 && edges.dst[i] < m);
        simd::axpy(agg.data() + static_cast<std::int64_t>(edges.dst[i]) * n,
                   edges.coeff[i], msg.data() + i * n, n);
      }
      simd::add_inplace(py, agg.data(), m * n);
    }
  }
  // relu: max(x, 0) is the bits of std::max(0.0f, x), -0 and NaN included.
  const std::int64_t size = m * n;
  const v8f zero = v8f::zero();
  std::int64_t i = 0;
  for (; i + simd::kLanes <= size; i += simd::kLanes)
    v8f::max(v8f::load(py + i), zero).store(py + i);
  for (; i < size; ++i) py[i] = std::max(0.0f, py[i]);
  return Tensor(node);
}

Tensor segment_mean(const Tensor& x, const std::vector<int>& segment,
                    int num_segments) {
  assert(segment.size() == static_cast<std::size_t>(x.rows()));
  const std::int64_t d = x.cols();
  const std::int64_t n = x.rows();
  auto counts = support::make_pooled<support::PoolVector<float>>(
      static_cast<std::size_t>(num_segments), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) (*counts)[segment[i]] += 1.0f;
  std::shared_ptr<support::PoolVector<int>> seg;  // backward-only copy
  if (!inference_mode() && x.requires_grad())
    seg = support::make_pooled<support::PoolVector<int>>(segment.begin(),
                                                         segment.end());
  auto node = make_op_node(
      {num_segments, static_cast<int>(d)}, {x.node()},
      [d, n, seg, counts](Node& out) {
        Node& X = *out.parents[0];
        if (!X.requires_grad) return;
        for (std::int64_t i = 0; i < n; ++i)
          simd::axpy(X.grad.data() + i * d, 1.0f / (*counts)[(*seg)[i]],
                     out.grad.data() + (*seg)[i] * d, d);
      });
  for (std::int64_t i = 0; i < n; ++i)
    simd::axpy(node->data.data() + segment[i] * d, 1.0f / (*counts)[segment[i]],
               x.data() + i * d, d);
  return Tensor(node);
}

Tensor log_softmax(const Tensor& x) {
  const std::int64_t m = x.rows();
  const std::int64_t n = x.cols();
  auto node = make_op_node(
      {static_cast<int>(m), static_cast<int>(n)}, {x.node()},
      [m, n](Node& out) {
        Node& X = *out.parents[0];
        if (!X.requires_grad) return;
        for (std::int64_t i = 0; i < m; ++i) {
          float sum_g = 0.0f;
          for (std::int64_t j = 0; j < n; ++j) sum_g += out.grad[i * n + j];
          for (std::int64_t j = 0; j < n; ++j)
            X.grad[i * n + j] +=
                out.grad[i * n + j] - std::exp(out.data[i * n + j]) * sum_g;
        }
      });
  for (std::int64_t i = 0; i < m; ++i) {
    float mx = x.data()[i * n];
    for (std::int64_t j = 1; j < n; ++j)
      mx = std::max(mx, x.data()[i * n + j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < n; ++j)
      sum += std::exp(x.data()[i * n + j] - mx);
    float lse = mx + std::log(sum);
    for (std::int64_t j = 0; j < n; ++j)
      node->data[i * n + j] = x.data()[i * n + j] - lse;
  }
  return Tensor(node);
}

Tensor nll_loss(const Tensor& log_probs, const std::vector<int>& targets) {
  assert(targets.size() == static_cast<std::size_t>(log_probs.rows()));
  const std::int64_t m = log_probs.rows();
  const std::int64_t n = log_probs.cols();
  std::shared_ptr<support::PoolVector<int>> tgt;  // backward-only copy
  if (!inference_mode() && log_probs.requires_grad())
    tgt = support::make_pooled<support::PoolVector<int>>(targets.begin(),
                                                         targets.end());
  auto node = make_op_node({1, 1}, {log_probs.node()}, [m, n, tgt](Node& out) {
    Node& L = *out.parents[0];
    if (!L.requires_grad) return;
    float g = out.grad[0] / static_cast<float>(m);
    for (std::int64_t i = 0; i < m; ++i) L.grad[i * n + (*tgt)[i]] -= g;
  });
  float loss = 0.0f;
  for (std::int64_t i = 0; i < m; ++i) {
    assert(targets[i] >= 0 && targets[i] < n);
    loss -= log_probs.data()[i * n + targets[i]];
  }
  node->data[0] = loss / static_cast<float>(m);
  return Tensor(node);
}

Tensor dropout(const Tensor& x, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) return x;
  const float keep = 1.0f - p;
  // Rng::bernoulli(keep) is uniform() < keep with uniform() = (r >> 11) *
  // 2^-53, exact in double. keep is a float, so keep * 2^53 is exact too,
  // and for the integer r >> 11 the test is (r >> 11) < ceil(keep * 2^53):
  // the same draw, the same outcome, no int-to-double conversion. A keep
  // that is not positive (p >= 1, or NaN) keeps nothing, as uniform() <
  // keep would.
  const std::uint64_t threshold =
      keep > 0.0f ? static_cast<std::uint64_t>(std::ceil(
                        static_cast<double>(keep) * 0x1.0p53))
                  : 0;
  const float scale = 1.0f / keep;
  const std::size_t numel = static_cast<std::size_t>(x.numel());
  auto mask = support::make_pooled<support::UninitPoolVector<float>>(numel);
  auto node = make_op_node(
      x.shape(), {x.node()},
      [mask](Node& out) {
        Node& X = *out.parents[0];
        if (!X.requires_grad) return;
        for (std::size_t i = 0; i < out.data.size(); ++i)
          X.grad[i] += (*mask)[i] * out.grad[i];
      },
      Output::kOverwritten);
  // One pass writes the mask (kept for the backward) and the output.
  const float* px = x.data();
  float* pm = mask->data();
  float* py = node->data.data();
  for (std::size_t i = 0; i < numel; ++i) {
    const float m = (rng() >> 11) < threshold ? scale : 0.0f;
    pm[i] = m;
    py[i] = m * px[i];
  }
  return Tensor(node);
}

int argmax_row(const float* row, int n) {
  int best = 0;
  for (int j = 1; j < n; ++j)
    if (row[j] > row[best]) best = j;
  return best;
}

std::vector<int> argmax_rows(const Tensor& x) {
  std::vector<int> out(x.rows());
  for (int i = 0; i < x.rows(); ++i)
    out[i] = argmax_row(x.data() + static_cast<std::int64_t>(i) * x.cols(),
                        x.cols());
  return out;
}

}  // namespace irgnn::tensor
