// Integration tests over the core pipeline: dataset augmentation, the
// end-to-end experiment (scaled down), cross-architecture transfer and the
// input-size study. These exercise every module in concert.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <unordered_set>

#include "core/dataset.h"
#include "core/experiment.h"
#include "graph/fingerprint.h"
#include "support/rng.h"

namespace irgnn::core {
namespace {

ExperimentOptions tiny_options() {
  ExperimentOptions options;
  options.num_sequences = 2;
  options.folds = 4;
  options.epochs = 4;
  options.hidden_dim = 16;
  options.num_layers = 2;
  options.ga_population = 10;
  options.ga_generations = 2;
  options.seed = 33;
  return options;
}

TEST(DatasetTest, BuildsGraphsForAllRegionsAndSequences) {
  Dataset dataset = build_dataset({3, 7});
  EXPECT_EQ(dataset.num_regions(), 56u);
  EXPECT_EQ(dataset.num_sequences(), 3u);
  for (std::size_t r = 0; r < dataset.num_regions(); ++r)
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_GT(dataset.graph(r, s).num_nodes(), 0u);
}

TEST(DatasetTest, DeterministicForSeed) {
  Dataset a = build_dataset({2, 9});
  Dataset b = build_dataset({2, 9});
  for (std::size_t r = 0; r < a.num_regions(); ++r)
    for (std::size_t s = 0; s < 2; ++s)
      EXPECT_EQ(a.graph(r, s).to_text(), b.graph(r, s).to_text());
}

TEST(DatasetTest, SharedBuildsArePooledPerOptions) {
  // Identical options must return the same pooled instance — repeated
  // build_dataset calls in one process reuse graph storage instead of
  // re-running the compile/extract/build pipeline.
  auto a = build_dataset_shared({2, 9});
  auto b = build_dataset_shared({2, 9});
  EXPECT_EQ(a.get(), b.get());
  // Any differing option field is a different dataset.
  auto other_seed = build_dataset_shared({2, 10});
  EXPECT_NE(a.get(), other_seed.get());
  auto other_threads = build_dataset_shared({2, 9, 1});
  EXPECT_NE(a.get(), other_threads.get());
  // The copying wrapper draws from the same pool.
  Dataset copy = build_dataset({2, 9});
  EXPECT_EQ(copy.num_regions(), a->num_regions());
  for (std::size_t r = 0; r < copy.num_regions(); ++r)
    for (std::size_t s = 0; s < copy.num_sequences(); ++s)
      EXPECT_EQ(copy.graph(r, s).to_text(), a->graph(r, s).to_text());
}

TEST(DatasetTest, SequencesReshapeGraphs) {
  Dataset dataset = build_dataset({6, 21});
  // At least one region must have structurally different variants across
  // sequences (otherwise augmentation would be a no-op).
  bool any_differs = false;
  for (std::size_t r = 0; r < dataset.num_regions(); ++r) {
    for (std::size_t s = 1; s < dataset.num_sequences(); ++s)
      any_differs |= dataset.graph(r, s).num_nodes() !=
                     dataset.graph(r, 0).num_nodes();
  }
  EXPECT_TRUE(any_differs);
}

TEST(ExperimentTest, EndToEndShapeAndInvariants) {
  ExperimentResult res =
      run_experiment(sim::MachineDesc::skylake(), tiny_options());
  EXPECT_EQ(res.regions.size(), 56u);
  EXPECT_EQ(res.fold_static_error.size(), 4u);

  // Ordering invariants that must hold regardless of model quality.
  EXPECT_GE(res.full_speedup, res.label_oracle_speedup - 1e-9);
  EXPECT_GE(res.label_oracle_speedup, res.static_speedup - 1e-9);
  EXPECT_GE(res.label_oracle_speedup, res.dynamic_speedup - 1e-9);
  EXPECT_GE(res.oracle_seq_speedup, res.overall_speedup - 1e-9);
  EXPECT_GT(res.full_speedup, 1.5);  // the space is worth exploring

  for (const auto& region : res.regions) {
    EXPECT_GE(region.fold, 0);
    EXPECT_GE(region.static_label, 0);
    EXPECT_LT(region.static_label, static_cast<int>(res.labels.size()));
    EXPECT_GE(region.static_error, 0.0);
    EXPECT_LE(region.static_error, 1.0);
    EXPECT_GE(region.oracle_speedup, 1.0 - 1e-9);  // default is a label
    EXPECT_EQ(region.embedding.size(),
              static_cast<std::size_t>(tiny_options().hidden_dim));
    // Hybrid picks one of the two models' labels.
    double hybrid_vs_members =
        std::min(std::abs(region.hybrid_speedup - region.static_speedup),
                 std::abs(region.hybrid_speedup - region.dynamic_speedup));
    EXPECT_LT(hybrid_vs_members, 1e-9);
  }

  // Label traffic: every fold looks up all R*S graphs and forwards each
  // structurally distinct one exactly once — a dedup that forwards a
  // duplicate, or skips a graph, moves serve_forwards.
  const ExperimentOptions options = tiny_options();
  const auto dataset = build_dataset_shared(
      {options.num_sequences, options.seed, options.num_threads});
  std::unordered_set<std::uint64_t> fingerprints;
  for (std::size_t r = 0; r < dataset->num_regions(); ++r)
    for (std::size_t s = 0; s < dataset->num_sequences(); ++s)
      fingerprints.insert(graph::fingerprint(dataset->graph(r, s)));
  const std::uint64_t folds = static_cast<std::uint64_t>(options.folds);
  const std::uint64_t lookups =
      dataset->num_regions() * dataset->num_sequences();
  ASSERT_LT(fingerprints.size(), lookups) << "no duplicate graph to dedup";
  EXPECT_EQ(res.serve_queries, folds * lookups);
  EXPECT_EQ(res.serve_forwards + res.serve_cache_hits, res.serve_queries);
  EXPECT_EQ(res.serve_forwards, folds * fingerprints.size());
}

/// 64-bit digest of the raw bits of every paper-facing field of an
/// experiment: the reduced labels, every region outcome (Fig. 3), the fold
/// errors (Fig. 4), the flag-sequence figures (Figs. 5/11) and the
/// aggregates (Fig. 9). The serve_* label-traffic counters are not
/// results and stay out (EndToEndShapeAndInvariants pins them).
std::uint64_t experiment_digest(const ExperimentResult& res) {
  std::uint64_t h = 0;
  auto mix_bits = [&](const auto& x) {
    static_assert(sizeof x <= sizeof(std::uint64_t));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof x);
    h = hash_combine64(h, bits);
  };
  auto mix_all = [&](const auto& v) {
    mix_bits(v.size());
    for (const auto& x : v) mix_bits(x);
  };
  mix_all(res.labels);
  mix_bits(res.regions.size());
  for (const RegionOutcome& r : res.regions) {
    mix_all(r.name);
    for (int x : {r.fold, r.oracle_label, r.static_label, r.dynamic_label})
      mix_bits(x);
    for (double x : {r.full_time, r.static_error, r.dynamic_error,
                     r.static_speedup, r.dynamic_speedup, r.oracle_speedup,
                     r.full_speedup, r.hybrid_error, r.hybrid_speedup})
      mix_bits(x);
    mix_bits(r.needs_profiling);
    mix_bits(r.hybrid_profiled);
    mix_all(r.embedding);
    mix_bits(r.static_confidence);
  }
  mix_all(res.fold_static_error);
  mix_all(res.fold_dynamic_error);
  mix_all(res.sequence_speedup);
  mix_bits(res.explored_sequence);
  for (double x : {res.explored_speedup, res.overall_speedup,
                   res.predicted_speedup, res.oracle_seq_speedup,
                   res.static_speedup, res.dynamic_speedup,
                   res.hybrid_speedup, res.full_speedup,
                   res.label_oracle_speedup, res.static_accuracy,
                   res.dynamic_accuracy, res.hybrid_router_accuracy,
                   res.hybrid_profiled_fraction})
    mix_bits(x);
  return h;
}

// Pins the paper's result, not only its seed determinism: a change that
// moves any label, prediction, error or speedup of a small fixed experiment
// fails here, at every thread count. Update the digest only for a
// deliberate change of the paper's numbers, and say why in CHANGES.md.
TEST(ExperimentTest, DeterministicForSeed) {
  constexpr std::uint64_t kExperimentDigest = 0x4ef6674546122d9dull;
  for (int threads : {1, 4}) {
    ExperimentOptions options = tiny_options();
    options.folds = 3;
    options.epochs = 2;
    options.num_threads = threads;
    ExperimentResult res =
        run_experiment(sim::MachineDesc::sandy_bridge(), options);
    EXPECT_EQ(experiment_digest(res), kExperimentDigest)
        << "at " << threads << " threads";
  }
}

TEST(ExperimentTest, LabelBudgetCapsGains) {
  ExperimentOptions two = tiny_options();
  two.num_labels = 2;
  ExperimentOptions thirteen = tiny_options();
  thirteen.num_labels = 13;
  ExperimentResult r2 = run_experiment(sim::MachineDesc::skylake(), two);
  ExperimentResult r13 =
      run_experiment(sim::MachineDesc::skylake(), thirteen);
  EXPECT_LE(r2.label_oracle_speedup, r13.label_oracle_speedup + 1e-9);
  EXPECT_LE(r2.labels.size(), 2u);
}

TEST(CrossArchTest, TransferKeepsMostGains) {
  ExperimentOptions options = tiny_options();
  options.folds = 3;
  options.epochs = 3;
  CrossArchResult res = run_cross_architecture(
      sim::MachineDesc::sandy_bridge(), sim::MachineDesc::skylake(), options);
  EXPECT_GT(res.cross_static_speedup, 1.0);
  EXPECT_GT(res.cross_dynamic_speedup, 1.0);
  // Native runs at least match cross runs on average (paper Fig. 8).
  EXPECT_GE(res.native_static_speedup, res.cross_static_speedup - 0.35);
}

TEST(InputSizeTest, LossesAreBoundedAndMostlySmall) {
  InputSizeResult res = run_input_size_study(sim::MachineDesc::skylake(),
                                             tiny_options());
  EXPECT_EQ(res.regions.size(), res.speedup_loss.size());
  EXPECT_GE(res.native_speedup, res.transferred_speedup - 1e-9);
  for (double loss : res.speedup_loss) EXPECT_GE(loss, -1e-9);
  // The average loss stays a small fraction of the native gains.
  EXPECT_LT(res.native_speedup - res.transferred_speedup,
            0.35 * (res.native_speedup - 1.0) + 0.05);
}

}  // namespace
}  // namespace irgnn::core
