// Tests for the GNN stack: graph batching, RGCN layers, and the static
// model's ability to fit / generalize on controlled graph data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gnn/graph_batch.h"
#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "workloads/suite.h"

namespace irgnn::gnn {
namespace {

graph::ProgramGraph tiny_graph(int feature) {
  graph::ProgramGraph g;
  g.name = "tiny";
  g.nodes.push_back({graph::NodeKind::Instruction, feature, "a"});
  g.nodes.push_back({graph::NodeKind::Instruction, feature, "b"});
  g.nodes.push_back({graph::NodeKind::Variable, 40, "v"});
  g.edges.push_back({0, 1, graph::EdgeKind::Control, 0});
  g.edges.push_back({0, 2, graph::EdgeKind::Data, 0});
  g.edges.push_back({2, 1, graph::EdgeKind::Data, 0});
  return g;
}

TEST(GraphBatchTest, OffsetsAndSegments) {
  graph::ProgramGraph a = tiny_graph(1);
  graph::ProgramGraph b = tiny_graph(2);
  GraphBatch batch = make_batch({&a, &b});
  EXPECT_EQ(batch.num_nodes(), 6);
  EXPECT_EQ(batch.num_graphs, 2);
  EXPECT_EQ(batch.segment[0], 0);
  EXPECT_EQ(batch.segment[5], 1);
  // Second graph's edges are offset by 3 nodes.
  const RelationEdges& control =
      batch.relations[static_cast<int>(graph::EdgeKind::Control)];
  ASSERT_EQ(control.src.size(), 2u);
  EXPECT_EQ(control.src[1], 3);
  EXPECT_EQ(control.dst[1], 4);
}

TEST(GraphBatchTest, RgcnNormalizationCoefficients) {
  graph::ProgramGraph g = tiny_graph(1);
  // Node 1 receives one control and one data edge; coefficients are the
  // inverse per-relation in-degree (1.0 here). Add a second data edge into
  // node 1 to get 0.5.
  g.edges.push_back({0, 1, graph::EdgeKind::Data, 1});
  GraphBatch batch = make_batch({&g});
  const RelationEdges& data =
      batch.relations[static_cast<int>(graph::EdgeKind::Data)];
  for (std::size_t e = 0; e < data.dst.size(); ++e) {
    if (data.dst[e] == 1) EXPECT_FLOAT_EQ(data.coeff[e], 0.5f);
  }
}

TEST(GraphBatchTest, EmptyInput) {
  GraphBatch batch = make_batch({});
  EXPECT_EQ(batch.num_graphs, 0);
  EXPECT_EQ(batch.num_nodes(), 0);
  ASSERT_EQ(batch.relations.size(),
            static_cast<std::size_t>(graph::kNumEdgeKinds));
  for (const RelationEdges& rel : batch.relations) {
    EXPECT_TRUE(rel.src.empty());
    EXPECT_TRUE(rel.dst.empty());
    EXPECT_TRUE(rel.coeff.empty());
  }
}

TEST(GraphBatchTest, SingleGraphKeepsLocalIndices) {
  graph::ProgramGraph g = tiny_graph(5);
  GraphBatch batch = make_batch({&g});
  EXPECT_EQ(batch.num_graphs, 1);
  EXPECT_EQ(batch.num_nodes(), 3);
  for (int s : batch.segment) EXPECT_EQ(s, 0);
  const RelationEdges& data =
      batch.relations[static_cast<int>(graph::EdgeKind::Data)];
  ASSERT_EQ(data.src.size(), 2u);
  EXPECT_EQ(data.src[0], 0);  // no offset applied to a lone graph
  EXPECT_EQ(data.dst[0], 2);
}

TEST(GraphBatchTest, NodeWithoutInEdgesGetsNoCoefficient) {
  // Node 0 of tiny_graph has out-edges only; every coefficient must belong
  // to a node with in-degree >= 1 and equal its inverse in-degree exactly.
  graph::ProgramGraph g = tiny_graph(1);
  GraphBatch batch = make_batch({&g});
  for (const RelationEdges& rel : batch.relations) {
    ASSERT_EQ(rel.coeff.size(), rel.dst.size());
    std::vector<int> in_degree(batch.num_nodes(), 0);
    for (int dst : rel.dst) ++in_degree[dst];
    for (std::size_t e = 0; e < rel.dst.size(); ++e)
      EXPECT_FLOAT_EQ(rel.coeff[e], 1.0f / in_degree[rel.dst[e]]);
  }
}

TEST(GraphBatchTest, ParallelAssemblyMatchesSerial) {
  // Enough graphs to cross the parallel-assembly threshold; the batch must
  // equal the serial concatenation element for element.
  std::vector<graph::ProgramGraph> owned;
  for (int i = 0; i < 24; ++i) owned.push_back(tiny_graph(i % 7));
  std::vector<const graph::ProgramGraph*> graphs;
  for (const auto& g : owned) graphs.push_back(&g);

  GraphBatch serial = make_batch(graphs, /*num_threads=*/1);
  GraphBatch parallel = make_batch(graphs, /*num_threads=*/8);
  EXPECT_EQ(serial.features, parallel.features);
  EXPECT_EQ(serial.segment, parallel.segment);
  ASSERT_EQ(serial.relations.size(), parallel.relations.size());
  for (std::size_t r = 0; r < serial.relations.size(); ++r) {
    EXPECT_EQ(serial.relations[r].src, parallel.relations[r].src);
    EXPECT_EQ(serial.relations[r].dst, parallel.relations[r].dst);
    EXPECT_EQ(serial.relations[r].coeff, parallel.relations[r].coeff);
  }
}

TEST(RgcnLayerTest, MessagePassingChangesNodeStates) {
  Rng rng(5);
  RGCNLayer layer(8, graph::kNumEdgeKinds, rng);
  graph::ProgramGraph g = tiny_graph(1);
  GraphBatch batch = make_batch({&g});
  tensor::Tensor h = tensor::Tensor::xavier({3, 8}, rng);
  tensor::Tensor out = layer.forward(h, batch.relations);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 8);
  // Node 1 has in-edges; with and without them its state must differ.
  GraphBatch no_edges = batch;
  for (auto& rel : no_edges.relations) rel = RelationEdges{};
  tensor::Tensor out_isolated = layer.forward(h, no_edges.relations);
  bool differs = false;
  for (int j = 0; j < 8; ++j)
    differs |= std::abs(out.at(1, j) - out_isolated.at(1, j)) > 1e-7f;
  EXPECT_TRUE(differs);
}

TEST(StaticModelTest, OverfitsSmallDataset) {
  // Two structurally different graph families with distinct labels; the
  // model must reach 100% training accuracy quickly.
  std::vector<graph::ProgramGraph> owned;
  std::vector<const graph::ProgramGraph*> graphs;
  std::vector<int> labels;
  for (int i = 0; i < 8; ++i) {
    owned.push_back(tiny_graph(i % 2 ? 3 : 9));
    labels.push_back(i % 2);
  }
  for (const auto& g : owned) graphs.push_back(&g);

  ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 2;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.epochs = 40;
  cfg.dropout = 0.0f;
  StaticModel model(cfg);
  TrainStats stats = model.train(graphs, labels);
  EXPECT_DOUBLE_EQ(stats.final_train_accuracy, 1.0);
  // Loss decreased.
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
}

TEST(StaticModelTest, PartialMinibatchKeepsLossFinite) {
  // 41 graphs with batch_size 32 leave a trailing batch of 9: shard sizing
  // must not produce empty shards, whose nll_loss would be 0/0 = NaN.
  std::vector<graph::ProgramGraph> owned;
  std::vector<const graph::ProgramGraph*> graphs;
  std::vector<int> labels;
  for (int i = 0; i < 41; ++i) {
    owned.push_back(tiny_graph(i % 5));
    labels.push_back(i % 2);
  }
  for (const auto& g : owned) graphs.push_back(&g);

  ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 2;
  cfg.hidden_dim = 8;
  cfg.num_layers = 1;
  cfg.epochs = 2;
  StaticModel model(cfg);
  TrainStats stats = model.train(graphs, labels);
  for (double loss : stats.epoch_loss) EXPECT_TRUE(std::isfinite(loss));
}

TEST(StaticModelTest, DeterministicForSeed) {
  auto module =
      workloads::build_region_module(workloads::benchmark_suite()[0]);
  auto pg = graph::build_graph(*module);
  ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 4;
  cfg.hidden_dim = 16;
  cfg.seed = 77;
  StaticModel a(cfg);
  StaticModel b(cfg);
  Evaluation ea;
  Evaluation eb;
  a.evaluate({&pg}, ea, /*want_embeddings=*/true);
  b.evaluate({&pg}, eb, /*want_embeddings=*/true);
  EXPECT_EQ(ea.embeddings, eb.embeddings);
}

TEST(StaticModelTest, BatchingInvariance) {
  // Predicting a graph alone or inside a batch must agree (no cross-graph
  // leakage through pooling or message passing).
  auto m0 = workloads::build_region_module(workloads::benchmark_suite()[0]);
  auto m1 = workloads::build_region_module(workloads::benchmark_suite()[20]);
  auto g0 = graph::build_graph(*m0);
  auto g1 = graph::build_graph(*m1);
  ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 5;
  cfg.hidden_dim = 16;
  StaticModel model(cfg);
  Evaluation solo;
  Evaluation batched;
  model.evaluate({&g0}, solo);
  model.evaluate({&g0, &g1}, batched);
  for (int j = 0; j < 5; ++j)
    EXPECT_NEAR(solo.log_probs[j], batched.log_probs[j], 1e-4f);
}

TEST(StaticModelTest, EmbeddingsHaveConfiguredWidth) {
  auto module =
      workloads::build_region_module(workloads::benchmark_suite()[5]);
  auto pg = graph::build_graph(*module);
  ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 13;
  cfg.hidden_dim = 24;
  StaticModel model(cfg);
  Evaluation eval;
  model.evaluate({&pg}, eval, /*want_embeddings=*/true);
  EXPECT_EQ(eval.embeddings.size(), 24u);
}

TEST(StaticModelTest, ShardedInferenceBitIdenticalToPerGraphQueries) {
  // The inference engine shards graph sets into runs of consecutive graphs
  // under a node budget (1024 nodes); per graph results must be
  // bit-identical to querying each graph alone (no leakage through shard
  // composition) and to each other for every thread count. The graphs here
  // total several budgets, and one of them exceeds a budget on its own.
  std::vector<graph::ProgramGraph> owned;
  for (int i = 0; i < 40; ++i) {
    graph::ProgramGraph g = tiny_graph(i % 7);
    if (i % 3 == 0)  // structural variety across shards
      g.edges.push_back({1, 2, graph::EdgeKind::Data, 0});
    // Chains of varying length so shard boundaries fall mid-set.
    const int extra = i == 17 ? 1500 : (i * 37) % 200;
    for (int k = 0; k < extra; ++k) {
      const int id = static_cast<int>(g.nodes.size());
      g.nodes.push_back({graph::NodeKind::Instruction, (i + k) % 11, "c"});
      g.edges.push_back({id - 1, id, graph::EdgeKind::Control, 0});
      if (k % 5 == 0) g.edges.push_back({2, id, graph::EdgeKind::Data, 0});
    }
    owned.push_back(std::move(g));
  }
  std::vector<const graph::ProgramGraph*> graphs;
  for (const auto& g : owned) graphs.push_back(&g);

  ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 3;
  cfg.hidden_dim = 16;
  cfg.seed = 0xBEE;
  cfg.num_threads = 1;
  StaticModel serial(cfg);
  cfg.num_threads = 8;
  StaticModel parallel(cfg);

  Evaluation batched;
  Evaluation batched_mt;
  Evaluation solo;
  serial.evaluate(graphs, batched);
  parallel.evaluate(graphs, batched_mt);
  ASSERT_EQ(batched.log_probs.size(), graphs.size() * 3);
  EXPECT_EQ(batched.log_probs, batched_mt.log_probs);
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    serial.evaluate({graphs[g]}, solo);
    EXPECT_TRUE(std::equal(solo.log_probs.begin(), solo.log_probs.end(),
                           batched.log_probs.begin() + g * 3))
        << "graph " << g;
  }
  EXPECT_EQ(serial.predict(graphs), parallel.predict(graphs));
}

TEST(StaticModelTest, EvaluateMatchesSeparateQueries) {
  // evaluate() derives predictions, log-probs and embeddings from one batch
  // build + forward per shard. Each slice must equal predict(), the same
  // call without embeddings, and each graph evaluated alone.
  std::vector<graph::ProgramGraph> owned;
  for (int i = 0; i < 21; ++i) owned.push_back(tiny_graph(i % 5));
  std::vector<const graph::ProgramGraph*> graphs;
  for (const auto& g : owned) graphs.push_back(&g);

  ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 4;
  cfg.hidden_dim = 12;
  cfg.seed = 0xE7A1;
  StaticModel model(cfg);

  Evaluation eval;
  model.evaluate(graphs, eval, /*want_embeddings=*/true);
  ASSERT_EQ(eval.predictions.size(), graphs.size());
  ASSERT_EQ(eval.log_probs.size(), graphs.size() * 4);
  ASSERT_EQ(eval.embeddings.size(), graphs.size() * 12);

  EXPECT_EQ(eval.predictions, model.predict(graphs));
  Evaluation solo;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    model.evaluate({graphs[g]}, solo, /*want_embeddings=*/true);
    for (int j = 0; j < 4; ++j)
      EXPECT_EQ(eval.log_probs[g * 4 + j], solo.log_probs[j])
          << "log_prob (" << g << "," << j << ")";
    for (int j = 0; j < 12; ++j)
      EXPECT_EQ(eval.embeddings[g * 12 + j], solo.embeddings[j])
          << "embedding (" << g << "," << j << ")";
  }
  // Asking for embeddings never moves the log-probs. Without embeddings the
  // buffer empties rather than keeping stale data.
  const Evaluation with_embeddings = eval;
  model.evaluate(graphs, eval, /*want_embeddings=*/false);
  EXPECT_EQ(eval.predictions, with_embeddings.predictions);
  EXPECT_EQ(eval.log_probs, with_embeddings.log_probs);
  EXPECT_TRUE(eval.embeddings.empty());
}

TEST(StaticModelTest, LearnsToSeparateSuiteFamilies) {
  // Distinguish CLOMP-style regions from NAS sweeps by structure: a proxy
  // for the real task that runs in seconds.
  std::vector<std::unique_ptr<ir::Module>> modules;
  std::vector<graph::ProgramGraph> graphs_owned;
  std::vector<int> labels;
  for (const auto& spec : workloads::benchmark_suite()) {
    if (spec.family != "clomp" && spec.family != "nas") continue;
    modules.push_back(workloads::build_region_module(spec));
    graphs_owned.push_back(graph::build_graph(*modules.back()));
    labels.push_back(spec.family == "clomp" ? 1 : 0);
  }
  std::vector<const graph::ProgramGraph*> graphs;
  for (const auto& g : graphs_owned) graphs.push_back(&g);

  ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 2;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.epochs = 30;
  cfg.dropout = 0.0f;
  StaticModel model(cfg);
  TrainStats stats = model.train(graphs, labels);
  EXPECT_GE(stats.final_train_accuracy, 0.95);
}

}  // namespace
}  // namespace irgnn::gnn
