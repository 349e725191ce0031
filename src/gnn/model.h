// The paper's static prediction network (Fig. 2a):
//
//   program graph -> node Embedding -> RGCN layers -> residual link +
//   Add&Norm -> mean Pooling -> Fully Connected (graph embedding vector) ->
//   Feed Forward head -> predicted configuration logits
//
// The vector after the fully-connected layer is the "graph vector" consumed
// by the hybrid model and the flag-prediction model (Sec. III-D/E).
//
// Training parallelizes inside each minibatch: the batch splits into a fixed
// number of gradient shards (independent of num_threads), every shard runs
// forward/backward against its own parameter replica, and shard gradients
// fold into the optimizer in shard order. Because the partition, the
// per-shard dropout streams (derived from (seed, epoch, batch, shard) via
// splitmix64) and the reduction order never depend on the thread count,
// TrainStats and predictions are bit-identical for every num_threads.
//
// The loop is allocation-free in steady state: replicas, their parameter
// handle vectors and each shard's chunk/batch scratch persist across
// minibatches (cleared, never freed), tensor ops recycle node and buffer
// storage through the arena, and the gradient reduction runs 8-wide over
// the cached handles.
//
// Inference is a separate fast path: predict and evaluate run tape-free
// under tensor::InferenceGuard (no autograd nodes, no gradient buffers),
// shard the graph set in runs of consecutive graphs of at most 1024 nodes
// across the shared pool against a persistent per-model context of pooled
// GraphBatch scratch, and concatenate per-shard results in shard order.
// Results are bit-identical to a serial full-batch forward for every thread
// count, and a warm query into caller-reused storage performs zero heap
// allocations.
//
// This is the one model the serving layer serves: serve::InferenceServer
// holds it as a shared_ptr<const StaticModel> for its whole life and
// answers every miss through predict_into under the contract above.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "gnn/graph_batch.h"
#include "gnn/modules.h"
#include "graph/program_graph.h"
#include "support/inline_function.h"
#include "tensor/optimizer.h"

namespace irgnn::gnn {

struct ModelConfig {
  int vocab_size = 0;      // set from graph::vocabulary_size()
  int num_labels = 13;
  int hidden_dim = 64;     // paper uses a 256-d graph vector; configurable
  int num_layers = 3;
  float learning_rate = 5e-3f;
  float dropout = 0.1f;
  int epochs = 60;
  int batch_size = 32;
  std::uint64_t seed = 0x5EED;
  /// Max threads for this model's shard dispatch and batch assembly (<= 0:
  /// every worker of the global pool). The tensor kernels inside read the
  /// process-global tensor::set_kernel_parallelism cap instead — set both
  /// to bound total fan-out (core::run_experiment does). Results are
  /// bit-identical for every value of either knob.
  int num_threads = 0;
};

struct TrainStats {
  std::vector<double> epoch_loss;
  double final_train_accuracy = 0.0;
};

/// Everything one inference pass can report, in flat caller-owned storage so
/// a warm evaluate() performs no heap allocations. All three members come
/// from the same batch build + forward per shard — logits, log-probs and
/// embeddings are never computed from separately re-packed batches.
struct Evaluation {
  std::vector<int> predictions;  // [G] argmax label per graph
  std::vector<float> log_probs;  // [G * num_labels], row-major
  std::vector<float> embeddings; // [G * hidden_dim] when requested, else empty
};

class StaticModel {
 public:
  explicit StaticModel(const ModelConfig& config);

  /// Trains on (graph, label) pairs with minibatched Adam.
  TrainStats train(const std::vector<const graph::ProgramGraph*>& graphs,
                   const std::vector<int>& labels);

  // --- Inference fast path --------------------------------------------------
  // Every query below runs tape-free (tensor::InferenceGuard): forward
  // records no autograd nodes and touches no gradient buffers. Graph sets
  // shard across the shared ThreadPool in node-budgeted index runs against a
  // persistent per-model context (pooled GraphBatch scratch reused via
  // make_batch_into), and per-shard results concatenate in shard order —
  // so results are bit-identical to a serial full-batch forward for every
  // thread count, and a warm call into caller-reused output storage
  // performs zero heap allocations (tests/arena_test.cpp enforces it).
  // Queries are serialized per model by an internal lock; distinct models
  // (e.g. one per CV fold) run concurrently.

  /// predict() into caller-owned storage (resized to the graph count). The
  /// allocation-free form for hot query loops.
  void predict_into(const std::vector<const graph::ProgramGraph*>& graphs,
                    std::vector<int>& out) const;

  /// Convenience allocating form of predict_into.
  std::vector<int> predict(
      const std::vector<const graph::ProgramGraph*>& graphs) const {
    std::vector<int> out;
    predict_into(graphs, out);
    return out;
  }

  /// Predictions + log-probabilities (+ graph embeddings — the static
  /// feature vectors the hybrid and flag models consume — when requested)
  /// from one batch build and one forward per shard. The allocation-free
  /// query behind the experiment's evaluation path.
  void evaluate(const std::vector<const graph::ProgramGraph*>& graphs,
                Evaluation& out, bool want_embeddings = false) const;

  const ModelConfig& config() const { return config_; }
  int num_labels() const { return config_.num_labels; }
  int hidden_dim() const { return config_.hidden_dim; }
  std::vector<tensor::Tensor> parameters() const;

 private:
  /// The full parameter stack. Gradient shards train against deep-copied
  /// replicas so concurrent backward passes never share gradient buffers.
  struct Stack {
    Embedding embedding;
    std::vector<RGCNLayer> layers;
    LayerNorm norm;
    Linear fc;
    Linear head;

    std::vector<tensor::Tensor> parameters() const;
  };

  /// Returns logits [G, num_labels]; fills `embeddings` with the pooled
  /// post-FC representation when non-null. A non-null `dropout_rng` enables
  /// training-mode dropout drawing from that stream.
  tensor::Tensor forward(const Stack& stack, const GraphBatch& batch,
                         Rng* dropout_rng, tensor::Tensor* embeddings) const;

  /// Deep copy of the stack whose parameters carry fresh gradient buffers.
  Stack make_grad_replica() const;

  /// Re-syncs an existing replica through its cached parameter handles:
  /// copies the current weights in and zeroes its gradients, reusing the
  /// buffers allocated by make_grad_replica(). Allocation-free.
  static void refresh_replica(const std::vector<tensor::Tensor>& src,
                              std::vector<tensor::Tensor>& dst);

  /// Nodes per inference shard: a shard takes consecutive graphs while its
  /// node count stays within this (a larger graph is a shard alone). The
  /// shard's [nodes, hidden] activations are sized by its node count, so a
  /// node budget (not a graph count) keeps every full shard's buffers in
  /// the same pool buckets whatever the graphs, and the memory a forward
  /// leaves in the pool does not depend on how callers batched. A fixed
  /// constant (never derived from the thread count) so the shard partition
  /// — and with it every float — is identical no matter how many workers
  /// run the shards.
  static constexpr std::size_t kInferenceShardNodes = 1024;

  /// One shard's persistent scratch: its first graph index, the graph chunk
  /// and its pooled batch, reused across queries so a warm shard assembles
  /// allocation-free.
  struct InferenceShard {
    std::size_t first = 0;
    std::vector<const graph::ProgramGraph*> chunk;
    GraphBatch batch;
  };

  /// Shards `graphs` by node budget across the pool; each shard builds its
  /// batch into persistent scratch and runs one tape-free forward, then
  /// `consume(first_graph_index, logits, embeddings)` fires per shard
  /// (embeddings is undefined unless want_embeddings). consume runs
  /// concurrently for distinct shards and must only write state owned by
  /// its shard's graph indices; it executes under the shard's
  /// InferenceGuard, so tensor ops inside stay tape-free too.
  void forward_shards(
      const std::vector<const graph::ProgramGraph*>& graphs,
      bool want_embeddings,
      support::FunctionRef<void(std::size_t, const tensor::Tensor&,
                                const tensor::Tensor&)>
          consume) const;

  ModelConfig config_;
  mutable Rng rng_;
  Stack stack_;
  /// Persistent inference context; the mutex serializes queries on one
  /// model (predict is const and models are queried from parallel folds).
  mutable std::mutex infer_mutex_;
  mutable std::vector<InferenceShard> infer_shards_;
};

}  // namespace irgnn::gnn
