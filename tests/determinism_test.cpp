// The parallel execution engine's determinism contract: every result —
// training losses, predictions, embeddings, exploration tables, reduced
// labels — is bit-identical no matter how many threads execute it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "ml/cross_validation.h"
#include "sim/exploration.h"
#include "support/rng.h"
#include "tensor/tensor.h"
#include "workloads/suite.h"

namespace irgnn {
namespace {

struct TrainOutcome {
  std::vector<double> epoch_loss;
  std::vector<int> predictions;
  std::vector<float> embedding;
  /// Every trained parameter, concatenated in StaticModel::parameters()
  /// order.
  std::vector<float> parameters;
  /// Every graph's embedding vector, concatenated in graph order.
  std::vector<float> all_embeddings;
};

TrainOutcome train_with_threads(int num_threads) {
  static const std::vector<graph::ProgramGraph> graphs_owned = [] {
    std::vector<graph::ProgramGraph> graphs;
    for (int r : {0, 3, 7, 12, 21, 30, 41, 50}) {
      auto module =
          workloads::build_region_module(workloads::benchmark_suite()[r]);
      graphs.push_back(graph::build_graph(*module));
    }
    return graphs;
  }();
  std::vector<const graph::ProgramGraph*> graphs;
  std::vector<int> labels;
  for (std::size_t i = 0; i < graphs_owned.size(); ++i) {
    graphs.push_back(&graphs_owned[i]);
    labels.push_back(static_cast<int>(i) % 3);
  }

  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 3;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.epochs = 4;
  cfg.batch_size = 4;  // several minibatches and gradient shards per epoch
  cfg.dropout = 0.2f;  // exercises the per-shard seeded dropout streams
  cfg.seed = 0xD5EED;
  cfg.num_threads = num_threads;

  tensor::set_kernel_parallelism(num_threads);
  gnn::StaticModel model(cfg);
  gnn::TrainStats stats = model.train(graphs, labels);
  TrainOutcome out;
  out.epoch_loss = stats.epoch_loss;
  out.predictions = model.predict(graphs);
  gnn::Evaluation eval;
  model.evaluate(graphs, eval, /*want_embeddings=*/true);
  out.embedding.assign(eval.embeddings.begin(),
                       eval.embeddings.begin() + cfg.hidden_dim);
  out.all_embeddings = std::move(eval.embeddings);
  for (const tensor::Tensor& p : model.parameters())
    out.parameters.insert(out.parameters.end(), p.data(),
                          p.data() + p.numel());
  tensor::set_kernel_parallelism(0);
  return out;
}

/// Bitwise equality — EXPECT_EQ on doubles would accept mere closeness
/// through -0.0 vs 0.0, and hides nothing else anyway; the contract is
/// "identical bits", so compare the representation.
template <typename T>
bool bits_equal(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(DeterminismTest, TrainingIsBitIdenticalAcrossThreadCounts) {
  TrainOutcome t1 = train_with_threads(1);
  TrainOutcome t2 = train_with_threads(2);
  TrainOutcome t8 = train_with_threads(8);

  ASSERT_EQ(t1.epoch_loss.size(), t2.epoch_loss.size());
  EXPECT_TRUE(bits_equal(t1.epoch_loss, t2.epoch_loss));
  EXPECT_TRUE(bits_equal(t1.epoch_loss, t8.epoch_loss));
  EXPECT_EQ(t1.predictions, t2.predictions);
  EXPECT_EQ(t1.predictions, t8.predictions);
  EXPECT_TRUE(bits_equal(t1.embedding, t2.embedding));
  EXPECT_TRUE(bits_equal(t1.embedding, t8.embedding));
}

/// 64-bit digest of the raw bits of a training outcome: every epoch loss,
/// every trained parameter, every prediction, every embedding.
std::uint64_t training_digest(const TrainOutcome& t) {
  std::uint64_t h = 0;
  auto mix_bits = [&](const void* p, std::size_t size) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, p, size);
    h = hash_combine64(h, bits);
  };
  for (double x : t.epoch_loss) mix_bits(&x, sizeof x);
  for (float x : t.parameters) mix_bits(&x, sizeof x);
  for (int x : t.predictions) mix_bits(&x, sizeof x);
  for (float x : t.all_embeddings) mix_bits(&x, sizeof x);
  return h;
}

// Pins the trained model itself, not only its thread-count invariance: a
// kernel or autograd change that moves any float of training fails here.
// Update the digest only for a deliberate change of the trained numbers,
// and say why in CHANGES.md.
TEST(DeterminismTest, TrainingMatchesPinnedDigest) {
  constexpr std::uint64_t kTrainingDigest = 0xc657bbdb3d637b94ull;
  for (int threads : {1, 4})
    EXPECT_EQ(training_digest(train_with_threads(threads)), kTrainingDigest)
        << "at " << threads << " threads";
}

TEST(DeterminismTest, ExplorationIsBitIdenticalAcrossThreadCounts) {
  sim::MachineDesc machine = sim::MachineDesc::skylake();
  std::vector<sim::WorkloadTraits> traits;
  for (int r : {2, 9, 17, 28, 39})
    traits.push_back(workloads::benchmark_suite()[r].traits);

  sim::ExplorationTable serial = sim::explore(machine, traits, 1.0, 1);
  sim::ExplorationTable parallel4 = sim::explore(machine, traits, 1.0, 4);
  sim::ExplorationTable parallel8 = sim::explore(machine, traits, 1.0, 8);

  ASSERT_EQ(serial.time.size(), parallel4.time.size());
  for (std::size_t r = 0; r < serial.time.size(); ++r) {
    EXPECT_TRUE(bits_equal(serial.time[r], parallel4.time[r])) << "row " << r;
    EXPECT_TRUE(bits_equal(serial.time[r], parallel8.time[r])) << "row " << r;
  }
  // Downstream label selection sees identical inputs, so it must agree too.
  auto labels1 = sim::reduce_labels(serial, 6);
  auto labels8 = sim::reduce_labels(parallel8, 6);
  EXPECT_EQ(labels1, labels8);
  EXPECT_EQ(sim::best_labels(serial, labels1),
            sim::best_labels(parallel8, labels8));
}

/// 64-bit digest of the raw bits of an exploration table's simulated
/// outputs: every time[r][c], then every default counter, then every probe
/// counter, in row order.
std::uint64_t exploration_digest(const sim::ExplorationTable& table) {
  std::uint64_t h = 0;
  auto mix = [&](double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    h = hash_combine64(h, bits);
  };
  auto mix_counters = [&](const sim::PerfCounters& c) {
    for (double x : {c.instructions, c.cycles, c.ipc, c.l1_miss_ratio,
                     c.l2_miss_ratio, c.l3_miss_ratio, c.remote_access_ratio,
                     c.bandwidth_utilization, c.package_power})
      mix(x);
  };
  for (const auto& row : table.time)
    for (double t : row) mix(t);
  for (const auto& c : table.default_counters) mix_counters(c);
  for (const auto& row : table.probe_counters)
    for (const auto& c : row) mix_counters(c);
  return h;
}

// Pins the exploration result itself, not only its thread-count invariance:
// a change to the cache model, the trace generator or the timing model that
// moves any simulated bit fails here. Update a digest only for a deliberate
// change of the simulated numbers, and say why in CHANGES.md.
TEST(DeterminismTest, ExplorationMatchesPinnedDigest) {
  std::vector<sim::WorkloadTraits> suite;
  for (const auto& spec : workloads::benchmark_suite())
    suite.push_back(spec.traits);
  std::vector<sim::WorkloadTraits> subset;
  for (int r : {2, 9, 17, 28, 39}) subset.push_back(suite[r]);

  constexpr std::uint64_t kSkylakeSuite = 0x63e362ff0f6f3ef3ull;
  constexpr std::uint64_t kSandyBridgeSubset = 0xcd315a1de80f204cull;
  for (int threads : {1, 4}) {
    EXPECT_EQ(exploration_digest(sim::explore(sim::MachineDesc::skylake(),
                                              suite, 1.0, threads)),
              kSkylakeSuite)
        << "Skylake suite at " << threads << " threads";
    EXPECT_EQ(exploration_digest(sim::explore(
                  sim::MachineDesc::sandy_bridge(), subset, 1.0, threads)),
              kSandyBridgeSubset)
        << "Sandy Bridge subset at " << threads << " threads";
  }
}

// Kernels below tensor::kParallelFlops never reach the pool, so every
// shape here is sized past it: kernel parallelism 1 runs the serial path,
// 8 the row-block fan-out, and the two must agree bit for bit.
TEST(DeterminismTest, MatmulIdenticalForEveryKernelParallelism) {
  constexpr int kM = 300, kK = 70, kN = 63;
  static_assert(std::int64_t{kM} * kK * kN >= tensor::kParallelFlops,
                "the matmul must be large enough to fan out");
  Rng rng(42);
  tensor::Tensor a = tensor::Tensor::xavier({kM, kK}, rng);
  tensor::Tensor b = tensor::Tensor::xavier({kK, kN}, rng);
  tensor::set_kernel_parallelism(1);
  tensor::Tensor serial = tensor::matmul(a, b);
  tensor::set_kernel_parallelism(8);
  tensor::Tensor parallel = tensor::matmul(a, b);
  tensor::set_kernel_parallelism(0);
  for (int i = 0; i < serial.numel(); ++i)
    ASSERT_EQ(serial.data()[i], parallel.data()[i]) << "entry " << i;
}

TEST(DeterminismTest, RgcnLayerForwardBackwardIdenticalForEveryKernelParallelism) {
  // Every GEMM of the fused layer (self term, each relation's messages, and
  // their backward GEMMs) is past the fan-out threshold.
  constexpr int kNodes = 300, kHidden = 64;
  constexpr int kEdges[] = {260, 300, 400};  // ascending
  static_assert(std::int64_t{kNodes} * kHidden * kHidden >=
                    tensor::kParallelFlops,
                "the self GEMM must be large enough to fan out");
  static_assert(std::int64_t{kEdges[0]} * kHidden * kHidden >=
                    tensor::kParallelFlops,
                "every relation GEMM must be large enough to fan out");
  Rng rng(0x5C6C);
  std::vector<tensor::RelationEdges> relations(3);
  for (int r = 0; r < 3; ++r) {
    std::vector<int> in_degree(kNodes, 0);
    for (int i = 0; i < kEdges[r]; ++i) {
      relations[r].src.push_back(static_cast<int>(rng.next_below(kNodes)));
      relations[r].dst.push_back(static_cast<int>(rng.next_below(kNodes)));
      ++in_degree[relations[r].dst.back()];
    }
    for (int v : relations[r].dst)
      relations[r].coeff.push_back(1.0f / static_cast<float>(in_degree[v]));
  }
  const tensor::Tensor h_init = tensor::Tensor::xavier({kNodes, kHidden}, rng);
  std::vector<tensor::Tensor> w_init;
  for (int w = 0; w < 4; ++w)
    w_init.push_back(tensor::Tensor::xavier({kHidden, kHidden}, rng));
  const tensor::Tensor upstream =
      tensor::Tensor::xavier({kNodes, kHidden}, rng);
  const std::vector<int> one_segment(kNodes, 0);
  const tensor::Tensor ones = tensor::Tensor::full({kHidden, 1}, 1.0f);

  // Forward, a weighted-sum loss, backward; returns the output followed by
  // the gradients of h and of every weight.
  auto run = [&](int parallelism) {
    auto copy_of = [](const tensor::Tensor& t) {
      return tensor::Tensor::from_data(
          t.shape(), std::vector<float>(t.data(), t.data() + t.numel()),
          /*requires_grad=*/true);
    };
    tensor::set_kernel_parallelism(parallelism);
    tensor::Tensor h = copy_of(h_init);
    std::vector<tensor::Tensor> w;
    for (const tensor::Tensor& t : w_init) w.push_back(copy_of(t));
    const std::vector<tensor::Tensor> relation_weights(w.begin() + 1, w.end());
    tensor::Tensor y = tensor::rgcn_layer(h, w[0], relation_weights, relations);
    tensor::matmul(
        tensor::segment_mean(tensor::mul(y, upstream), one_segment, 1), ones)
        .backward();
    tensor::set_kernel_parallelism(0);
    std::vector<std::vector<float>> out;
    out.emplace_back(y.data(), y.data() + y.numel());
    out.emplace_back(h.grad(), h.grad() + h.numel());
    for (const tensor::Tensor& t : w)
      out.emplace_back(t.grad(), t.grad() + t.numel());
    return out;
  };
  const std::vector<std::vector<float>> serial = run(1);
  const std::vector<std::vector<float>> parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    ASSERT_EQ(serial[t].size(), parallel[t].size());
    EXPECT_EQ(std::memcmp(serial[t].data(), parallel[t].data(),
                          serial[t].size() * sizeof(float)),
              0)
        << (t == 0 ? "output" : t == 1 ? "h grad" : "weight grad")
        << " (buffer " << t << ")";
  }
}

TEST(DeterminismTest, ForEachFoldRunsEveryFoldOnce) {
  auto folds = ml::k_fold(57, 10, 0x5EED);
  std::vector<int> visits(folds.size(), 0);
  ml::for_each_fold(folds.size(), 4,
                    [&](std::size_t f) { ++visits[f]; });
  for (std::size_t f = 0; f < folds.size(); ++f) EXPECT_EQ(visits[f], 1);
  // Same seed, same folds.
  auto again = ml::k_fold(57, 10, 0x5EED);
  for (std::size_t f = 0; f < folds.size(); ++f) {
    EXPECT_EQ(folds[f].train_indices, again[f].train_indices);
    EXPECT_EQ(folds[f].validation_indices, again[f].validation_indices);
  }
}

}  // namespace
}  // namespace irgnn
