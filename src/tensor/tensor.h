// Minimal tape-based autograd tensor library (the libtorch stand-in).
//
// Tensors are handles to shared nodes holding float data, an optional
// gradient buffer and a backward closure. Ops build the DAG eagerly;
// Tensor::backward() topologically sorts the graph and accumulates
// gradients. Shapes are rank-1/2 (vectors and matrices) — all the GNN needs.
// Sizes and index arithmetic are 64-bit throughout, so batched graphs with
// rows*cols beyond 2^31 don't overflow.
//
// Heavy kernels (matmul and its backward, fused bias+activation, layer norm,
// row scatter/gather reductions) run 8-wide through the simd::v8f wrapper,
// tile for cache locality and parallelize over row blocks on the shared
// ThreadPool; every output element is owned by exactly one index and inner
// summation order is the fixed 8-lane accumulation tree of support/simd.h,
// so results are bit-identical for every thread count and ISA.
//
// The hot path is allocation-free after warmup: nodes, data/grad buffers,
// per-op auxiliary vectors and pack scratch all recycle through the buffer
// arena (support/arena.h), and backward closures live inline in the node
// (support/inline_function.h) instead of on the heap.
//
// The GEMM kernels (tensor/gemm.h) put output columns across vector lanes
// and read the right operand in its natural layout, with every output
// element's reduction order unchanged from one simd::dot per element. The
// dB GEMM reads A in place too (through the edge list for gathered rows),
// so a backward copies no activation, only the small weight transposes of
// the dA GEMMs. Ops that write every output element (non-accumulating
// matmul, add_bias_act, layer_norm, dropout, rgcn_layer) skip the zero
// fill of their data buffer.
// InferenceGuard provides a thread-local no-grad mode in which ops
// record no tape at all — the inference fast path of gnn::StaticModel.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/arena.h"
#include "support/inline_function.h"
#include "support/rng.h"

namespace irgnn::tensor {

struct Shape {
  int rows = 0;
  int cols = 1;  // rank-1 tensors have cols == 1
  std::int64_t numel() const {
    return static_cast<std::int64_t>(rows) * cols;
  }
  bool operator==(const Shape& o) const {
    return rows == o.rows && cols == o.cols;
  }
};

class Tensor;

/// Most relation types one rgcn_layer call can take (the program graph's
/// control/data/call edge kinds; gnn/graph_batch.h static_asserts the fit).
inline constexpr int kMaxRgcnRelations = 3;

namespace detail {
struct Node {
  /// No tape op takes more than this many inputs (rgcn_layer: h, the self
  /// weight and one weight per relation).
  static constexpr int kMaxParents = 2 + kMaxRgcnRelations;

  Shape shape;
  /// Zero-filled at creation unless the op writes every element itself.
  support::UninitPoolVector<float> data;
  support::PoolVector<float> grad;  // sized lazily on first backward touch
  bool requires_grad = false;
  int num_parents = 0;
  /// Epoch stamp of the last backward() traversal that visited this node —
  /// replaces a per-call hash set, so the topological sort allocates nothing.
  std::uint64_t visit_mark = 0;
  std::array<std::shared_ptr<Node>, kMaxParents> parents;
  support::InlineFunction<void(Node&), 64> backward_fn;  // accumulates into
                                                         // parents' grads

  void ensure_grad() {
    if (grad.empty()) grad.assign(data.size(), 0.0f);
  }
};
}  // namespace detail

class Tensor {
 public:
  Tensor() = default;

  // --- Constructors -------------------------------------------------------
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  static Tensor from_data(Shape shape, std::vector<float> values,
                          bool requires_grad = false);
  /// Xavier/Glorot-uniform initialized parameter.
  static Tensor xavier(Shape shape, Rng& rng);
  /// Kaiming/He-normal initialized parameter (for ReLU stacks).
  static Tensor kaiming(Shape shape, Rng& rng);

  bool defined() const { return node_ != nullptr; }
  const Shape& shape() const { return node_->shape; }
  int rows() const { return node_->shape.rows; }
  int cols() const { return node_->shape.cols; }
  std::int64_t numel() const { return node_->shape.numel(); }

  float* data() { return node_->data.data(); }
  const float* data() const { return node_->data.data(); }

  /// Mutable gradient buffer; allocates (zero-filled) on first touch.
  float* grad() {
    node_->ensure_grad();
    return node_->grad.data();
  }
  /// Read-only gradient access that never allocates: null until a backward
  /// pass (or the mutable accessor) materialized the buffer. Reductions and
  /// tests should prefer this so inspection can't change allocation state.
  const float* grad() const {
    return node_->grad.empty() ? nullptr : node_->grad.data();
  }
  /// Whether the gradient buffer has been materialized.
  bool grad_allocated() const { return !node_->grad.empty(); }

  bool requires_grad() const { return node_->requires_grad; }

  float at(int r, int c = 0) const {
    return node_->data[static_cast<std::int64_t>(r) * cols() + c];
  }
  float item() const { return node_->data.at(0); }

  /// Runs reverse-mode autodiff from this (scalar) tensor.
  void backward();

  /// Clears the gradient buffer (optimizers call this between steps).
  void zero_grad() {
    if (!node_->grad.empty())
      std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
  }

  std::shared_ptr<detail::Node> node() const { return node_; }
  explicit Tensor(std::shared_ptr<detail::Node> node)
      : node_(std::move(node)) {}

 private:
  std::shared_ptr<detail::Node> node_;
};

/// Caps how many threads the parallel kernels (matmul and its backward,
/// add_bias_act, index_add_rows backward) may use; <= 0 restores the default
/// of "all global-pool workers". Results are bit-identical for every value —
/// this only trades wall-clock for core occupancy.
void set_kernel_parallelism(int max_threads);
int kernel_parallelism();

/// Parallel kernels split their output rows into blocks of kRowBlock rows
/// and hand the blocks to the pool only when the kernel does at least
/// kParallelFlops scalar multiply-adds; smaller kernels run serially on the
/// caller. The threshold is the measured crossover below which the pool
/// round trip costs more than the split saves (microbench_kernels, "kernel
/// fan-out" section). Blocks are disjoint either way, so neither constant
/// can change a bit.
inline constexpr std::int64_t kRowBlock = 16;
inline constexpr std::int64_t kParallelFlops = 1024 * 1024;

/// RAII no-grad scope for the inference fast path. While an InferenceGuard
/// is alive on the current thread, ops record no tape: outputs carry
/// requires_grad = false, reference no parents (so intermediate activations
/// recycle through the arena as soon as their handle dies), store no
/// backward closure, and backward-only scratch (index/coefficient/target
/// copies) is never built. Forward values are bit-identical to recording
/// mode — the guard changes what is *remembered*, never what is computed.
/// backward() on anything produced inside the scope throws, since nothing
/// requires grad. Guards nest; each thread (e.g. a pool worker running one
/// inference shard) arms its own.
class InferenceGuard {
 public:
  InferenceGuard();
  ~InferenceGuard();
  InferenceGuard(const InferenceGuard&) = delete;
  InferenceGuard& operator=(const InferenceGuard&) = delete;

 private:
  bool prev_;
};

/// True while an InferenceGuard is alive on this thread.
bool inference_mode();

// --- Ops (forward builds the tape) ------------------------------------------

/// C[m,n] = A[m,k] * B[k,n]. B is read in place, with a vector of output
/// columns per row tile; each C[i,j] is the 8-lane tree dot product of A's
/// row i and B's column j.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Elementwise addition of same-shape tensors.
Tensor add(const Tensor& a, const Tensor& b);

/// Adds a row vector b[1,n] to every row of a[m,n].
Tensor add_bias(const Tensor& a, const Tensor& b);

/// Pointwise activations fusable into add_bias_act.
enum class Act { None, Relu, Tanh, Sigmoid };

/// Fused act(a + broadcast bias): one pass over the data instead of two ops
/// and an intermediate tape node. b is [1,n], a is [m,n].
Tensor add_bias_act(const Tensor& a, const Tensor& b, Act act);

/// Elementwise subtraction / product.
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

/// Scalar multiply.
Tensor scale(const Tensor& a, float s);

Tensor relu(const Tensor& a);
Tensor tanh_t(const Tensor& a);
Tensor sigmoid(const Tensor& a);

/// Row-wise layer normalization with learnable gamma/beta (both [1,n]).
Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps = 1e-5f);

/// out[i,:] = table[indices[i],:]
Tensor embedding(const Tensor& table, const std::vector<int>& indices);

/// out[i,:] = x[index[i],:]  (row gather)
Tensor gather_rows(const Tensor& x, const std::vector<int>& index);

/// out[num_rows, d]; out[dst[e],:] += coeff[e] * x[e,:]
Tensor index_add_rows(const Tensor& x, const std::vector<int>& dst,
                      const std::vector<float>& coeff, int num_rows);

/// Edge lists of one relation: edge e carries coeff[e] * x[src[e],:] into
/// row dst[e] (for the RGCN, coeff is 1/c_{dst,r}, the inverse in-degree
/// under the relation).
struct RelationEdges {
  std::vector<int> src;
  std::vector<int> dst;
  std::vector<float> coeff;
};

/// One relational graph convolution as a single tape node:
///   relu(h W0 + sum_r index_add_rows(gather_rows(h, src_r) W_r, dst_r,
///                                    coeff_r, h.rows()))
/// over the first relation_weights.size() entries of `relations`; relations
/// without edges are skipped and their weights get no gradient. Forward and
/// the hand-written backward perform exactly the float operations of that
/// unfused op chain in the same order, so values and gradients are
/// bit-identical to it; the fused node just skips the chain's intermediate
/// tape nodes and their zero-filled data and gradient buffers.
Tensor rgcn_layer(const Tensor& h, const Tensor& self_weight,
                  const std::vector<Tensor>& relation_weights,
                  const std::vector<RelationEdges>& relations);

/// Mean over row segments: out[s,:] = mean over {i : segment[i]==s} of x[i,:].
/// Empty segments produce zero rows.
Tensor segment_mean(const Tensor& x, const std::vector<int>& segment,
                    int num_segments);

/// Row-wise log-softmax.
Tensor log_softmax(const Tensor& x);

/// Mean negative log-likelihood of `targets` under log-probabilities.
Tensor nll_loss(const Tensor& log_probs, const std::vector<int>& targets);

/// Inverted dropout; identity when `training` is false. Element i is kept
/// when draw i of `rng` would make Rng::bernoulli(1 - p) true (one draw
/// per element, in order), and scaled by 1 / (1 - p).
Tensor dropout(const Tensor& x, float p, Rng& rng, bool training);

/// argmax of one contiguous row (strict >, first maximum wins) — the
/// non-allocating primitive behind argmax_rows and the inference engine's
/// prediction loops.
int argmax_row(const float* row, int n);

/// argmax per row.
std::vector<int> argmax_rows(const Tensor& x);

}  // namespace irgnn::tensor
