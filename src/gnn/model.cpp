#include "gnn/model.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "support/simd.h"
#include "support/thread_pool.h"

namespace irgnn::gnn {

using tensor::Tensor;

namespace {

/// A minibatch splits into this many gradient shards. The count is a
/// constant — never derived from num_threads — so the partition, and with it
/// every float, is identical no matter how many workers execute the shards.
constexpr std::size_t kGradShards = 8;

Tensor clone_param(const Tensor& p) {
  return Tensor::from_data(p.shape(),
                           std::vector<float>(p.data(), p.data() + p.numel()),
                           /*requires_grad=*/true);
}

}  // namespace

std::vector<Tensor> StaticModel::Stack::parameters() const {
  std::vector<Tensor> params = embedding.parameters();
  for (const RGCNLayer& layer : layers) {
    auto lp = layer.parameters();
    params.insert(params.end(), lp.begin(), lp.end());
  }
  for (const auto& mod_params :
       {norm.parameters(), fc.parameters(), head.parameters()})
    params.insert(params.end(), mod_params.begin(), mod_params.end());
  return params;
}

StaticModel::StaticModel(const ModelConfig& config)
    : config_(config), rng_(config.seed) {
  assert(config_.vocab_size > 0 && config_.num_labels > 0);
  stack_.embedding = Embedding(config_.vocab_size, config_.hidden_dim, rng_);
  for (int l = 0; l < config_.num_layers; ++l)
    stack_.layers.emplace_back(config_.hidden_dim, graph::kNumEdgeKinds, rng_);
  stack_.norm = LayerNorm(config_.hidden_dim);
  stack_.fc = Linear(config_.hidden_dim, config_.hidden_dim, rng_);
  stack_.head = Linear(config_.hidden_dim, config_.num_labels, rng_);
}

std::vector<Tensor> StaticModel::parameters() const {
  return stack_.parameters();
}

void StaticModel::refresh_replica(const std::vector<Tensor>& src,
                                  std::vector<Tensor>& dst) {
  for (std::size_t k = 0; k < src.size(); ++k) {
    std::copy(src[k].data(), src[k].data() + src[k].numel(), dst[k].data());
    dst[k].zero_grad();
  }
}

StaticModel::Stack StaticModel::make_grad_replica() const {
  Stack replica;
  replica.embedding = Embedding(clone_param(stack_.embedding.parameters()[0]));
  for (const RGCNLayer& layer : stack_.layers) {
    auto lp = layer.parameters();  // {self_weight, relation_weights...}
    std::vector<Tensor> relations;
    for (std::size_t r = 1; r < lp.size(); ++r)
      relations.push_back(clone_param(lp[r]));
    replica.layers.emplace_back(clone_param(lp[0]), std::move(relations));
  }
  auto np = stack_.norm.parameters();
  replica.norm = LayerNorm(clone_param(np[0]), clone_param(np[1]));
  auto fp = stack_.fc.parameters();
  replica.fc = Linear(clone_param(fp[0]), clone_param(fp[1]));
  auto hp = stack_.head.parameters();
  replica.head = Linear(clone_param(hp[0]), clone_param(hp[1]));
  return replica;
}

Tensor StaticModel::forward(const Stack& stack, const GraphBatch& batch,
                            Rng* dropout_rng, Tensor* embeddings) const {
  Tensor h0 = stack.embedding.forward(batch.features);
  Tensor h = h0;
  for (const RGCNLayer& layer : stack.layers)
    h = layer.forward(h, batch.relations);
  // Residual link from the initial embedding, then Add & Norm (Fig. 2a).
  h = stack.norm.forward(tensor::add(h, h0));
  if (dropout_rng && config_.dropout > 0.0f)
    h = tensor::dropout(h, config_.dropout, *dropout_rng, true);
  Tensor pooled = tensor::segment_mean(h, batch.segment, batch.num_graphs);
  Tensor vec = stack.fc.forward(pooled, tensor::Act::Relu);
  if (embeddings) *embeddings = vec;
  return stack.head.forward(vec);
}

TrainStats StaticModel::train(
    const std::vector<const graph::ProgramGraph*>& graphs,
    const std::vector<int>& labels) {
  assert(graphs.size() == labels.size());
  TrainStats stats;
  tensor::Adam optimizer(parameters(), {.lr = config_.learning_rate});
  std::vector<Tensor> main_params = parameters();
  support::ThreadPool& pool = support::ThreadPool::global();

  std::vector<std::size_t> order(graphs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Shard replicas allocate once and are refreshed (weights re-copied,
  // gradients zeroed) every batch — the optimizer moved the weights in
  // between, but the buffers themselves are reusable. The parameter handle
  // vectors and the per-shard chunk/batch scratch persist for the same
  // reason: after the first few minibatches every buffer a step needs
  // already exists, and a full train step touches malloc zero times.
  std::vector<Stack> replicas(kGradShards);
  std::vector<std::vector<Tensor>> replica_params(kGradShards);
  std::vector<char> replica_ready(kGradShards, 0);

  struct ShardScratch {
    std::vector<const graph::ProgramGraph*> chunk;
    std::vector<int> labels;
    GraphBatch batch;
  };
  std::vector<ShardScratch> scratch(kGradShards);
  std::vector<double> shard_loss(kGradShards, 0.0);
  std::vector<std::size_t> shard_count(kGradShards, 0);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    std::size_t batch_index = 0;
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(config_.batch_size),
                     ++batch_index) {
      std::size_t end = std::min(
          order.size(), start + static_cast<std::size_t>(config_.batch_size));
      const std::size_t n = end - start;
      // Recompute the shard count from the rounded-up shard size: a partial
      // minibatch (e.g. n=9 against 8 target shards) would otherwise leave
      // trailing shards empty, and an empty nll_loss is 0/0 = NaN.
      const std::size_t target_shards = std::min(kGradShards, n);
      const std::size_t shard_size = (n + target_shards - 1) / target_shards;
      const std::size_t num_shards = (n + shard_size - 1) / shard_size;

      // Every shard forwards/backwards against its own replica; the shard
      // key (not the executing thread) seeds its dropout stream.
      const std::uint64_t batch_key = hash_combine64(
          hash_combine64(config_.seed, static_cast<std::uint64_t>(epoch)),
          static_cast<std::uint64_t>(batch_index));
      pool.parallel_for_seeded(
          0, static_cast<std::int64_t>(num_shards), config_.num_threads,
          batch_key, [&](std::int64_t s, Rng& dropout_rng) {
            std::size_t s0 = start + static_cast<std::size_t>(s) * shard_size;
            std::size_t s1 = std::min(end, s0 + shard_size);
            ShardScratch& sc = scratch[s];
            sc.chunk.clear();
            sc.labels.clear();
            for (std::size_t i = s0; i < s1; ++i) {
              sc.chunk.push_back(graphs[order[i]]);
              sc.labels.push_back(labels[order[i]]);
            }
            // Shards are small; keep the batch build serial and spend the
            // workers on whole shards instead.
            make_batch_into(sc.batch, sc.chunk, /*num_threads=*/1);
            if (replica_ready[s]) {
              refresh_replica(main_params, replica_params[s]);
            } else {
              replicas[s] = make_grad_replica();
              replica_params[s] = replicas[s].parameters();
              replica_ready[s] = 1;
            }
            Tensor logits = forward(replicas[s], sc.batch, &dropout_rng,
                                    nullptr);
            Tensor loss = tensor::nll_loss(tensor::log_softmax(logits),
                                           sc.labels);
            loss.backward();
            shard_loss[s] = loss.item();
            shard_count[s] = s1 - s0;
          });

      // Deterministic reduction: shard gradients fold in shard order with
      // weights shard_n / batch_n, then one optimizer step for the batch.
      // Shard gradients are read through the const accessor — a parameter a
      // shard never touched (e.g. a relation with no edges in its chunk)
      // has no gradient buffer, contributes zero, and must not be forced to
      // allocate one here.
      optimizer.zero_grad();
      double batch_loss = 0.0;
      for (std::size_t s = 0; s < num_shards; ++s) {
        const float weight = static_cast<float>(shard_count[s]) /
                             static_cast<float>(n);
        const std::vector<Tensor>& shard_params = replica_params[s];
        for (std::size_t k = 0; k < main_params.size(); ++k) {
          const float* src = shard_params[k].grad();
          if (src == nullptr) continue;
          simd::axpy(main_params[k].grad(), weight, src,
                     main_params[k].numel());
        }
        batch_loss += shard_loss[s] * static_cast<double>(shard_count[s]) /
                      static_cast<double>(n);
      }
      optimizer.step();
      epoch_loss += batch_loss;
      ++batches;
    }
    stats.epoch_loss.push_back(epoch_loss / static_cast<double>(batches));
  }

  // Final training accuracy (diagnostic).
  std::vector<int> predictions = predict(graphs);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i)
    correct += (predictions[i] == labels[i]);
  stats.final_train_accuracy =
      labels.empty() ? 0.0
                     : static_cast<double>(correct) /
                           static_cast<double>(labels.size());
  return stats;
}

void StaticModel::forward_shards(
    const std::vector<const graph::ProgramGraph*>& graphs,
    bool want_embeddings,
    support::FunctionRef<void(std::size_t, const Tensor&, const Tensor&)>
        consume) const {
  if (graphs.empty()) return;
  std::lock_guard<std::mutex> lock(infer_mutex_);
  const std::size_t G = graphs.size();
  std::size_t num_shards = 0;
  std::size_t shard_nodes = 0;
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t n = graphs[g]->num_nodes();
    if (num_shards == 0 || shard_nodes + n > kInferenceShardNodes) {
      if (infer_shards_.size() == num_shards) infer_shards_.emplace_back();
      infer_shards_[num_shards++].first = g;
      shard_nodes = 0;
    }
    shard_nodes += n;
  }

  auto run_shard = [&](std::int64_t s) {
    // Arm the tape switch on whichever thread runs this shard: forward
    // records no nodes, touches no grad buffers, builds no backward scratch.
    tensor::InferenceGuard guard;
    InferenceShard& shard = infer_shards_[s];
    const std::size_t g0 = shard.first;
    const std::size_t g1 = static_cast<std::size_t>(s) + 1 < num_shards
                               ? infer_shards_[s + 1].first
                               : G;
    shard.chunk.clear();
    for (std::size_t g = g0; g < g1; ++g) shard.chunk.push_back(graphs[g]);
    // Shards are small; build serially and spend workers on whole shards.
    make_batch_into(shard.batch, shard.chunk, /*num_threads=*/1);
    Tensor embeddings;
    Tensor logits = forward(stack_, shard.batch, nullptr,
                            want_embeddings ? &embeddings : nullptr);
    consume(g0, logits, embeddings);
  };

  // Per-graph outputs never depend on which other graphs share a batch
  // (message passing stays inside a graph, pooling is per segment, and
  // every kernel's reduction order is per output element), so the sharded
  // results are bit-identical to one full-batch forward — and to each
  // other for every thread count, since the partition depends only on the
  // graphs' node counts.
  if (num_shards == 1)
    run_shard(0);
  else
    support::ThreadPool::global().parallel_for(
        0, static_cast<std::int64_t>(num_shards), config_.num_threads,
        run_shard);
}

void StaticModel::predict_into(
    const std::vector<const graph::ProgramGraph*>& graphs,
    std::vector<int>& out) const {
  out.resize(graphs.size());
  const int L = config_.num_labels;
  forward_shards(
      graphs, /*want_embeddings=*/false,
      [&](std::size_t g0, const Tensor& logits, const Tensor&) {
        for (int i = 0; i < logits.rows(); ++i)
          out[g0 + static_cast<std::size_t>(i)] = tensor::argmax_row(
              logits.data() + static_cast<std::int64_t>(i) * L, L);
      });
}

void StaticModel::evaluate(
    const std::vector<const graph::ProgramGraph*>& graphs, Evaluation& out,
    bool want_embeddings) const {
  const int L = config_.num_labels;
  const int H = config_.hidden_dim;
  const std::size_t G = graphs.size();
  out.predictions.resize(G);
  out.log_probs.resize(G * static_cast<std::size_t>(L));
  out.embeddings.resize(want_embeddings ? G * static_cast<std::size_t>(H)
                                        : 0);
  forward_shards(
      graphs, want_embeddings,
      [&](std::size_t g0, const Tensor& logits, const Tensor& embeddings) {
        // Still inside the shard's InferenceGuard: tape-free log_softmax.
        Tensor logp = tensor::log_softmax(logits);
        const std::int64_t rows = logits.rows();
        std::copy(logp.data(), logp.data() + rows * L,
                  out.log_probs.begin() + g0 * static_cast<std::size_t>(L));
        for (std::int64_t i = 0; i < rows; ++i)
          out.predictions[g0 + static_cast<std::size_t>(i)] =
              tensor::argmax_row(logits.data() + i * L, L);
        if (want_embeddings)
          std::copy(embeddings.data(), embeddings.data() + rows * H,
                    out.embeddings.begin() + g0 * static_cast<std::size_t>(H));
      });
}

}  // namespace irgnn::gnn
