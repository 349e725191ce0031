// The end-to-end evaluation harness reproducing the paper's Section IV.
//
// run_experiment() executes the full workflow for one machine:
//   step A/B  dataset augmentation + region graphs        (core/dataset)
//   step C    exhaustive exploration + label reduction    (sim/exploration)
//   step D    static GNN model, 10-fold cross-validation  (gnn/model)
//   step E    flag-sequence selection (explored / overall / predicted /
//             oracle)                                     (ml/decision_tree + GA)
//   baseline  dynamic counters model (Sanchez Barrera's classification tree
//             on package power + L3 miss ratio)           (ml/decision_tree)
//   hybrid    static/dynamic delegation with a 20% error threshold
//
// Every fig3..fig11 bench consumes the ExperimentResult; fig8 uses
// run_cross_architecture(); fig10/fig12 have dedicated helpers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "gnn/model.h"
#include "sim/exploration.h"

namespace irgnn::core {

struct ExperimentOptions {
  // Scale knobs (paper-scale: 1000 sequences; defaults keep benches fast).
  std::size_t num_sequences = 12;
  int num_labels = 13;
  int folds = 10;
  std::uint64_t seed = 0x5EED;
  double size_scale = 1.0;

  /// Max threads for every parallel stage (dataset compilation, exhaustive
  /// exploration, CV folds, minibatch gradient shards; <= 0: all workers of
  /// the global pool). The determinism contract guarantees bit-identical
  /// results for every value — this knob only trades wall-clock for cores.
  int num_threads = 0;

  // GNN hyper-parameters.
  int hidden_dim = 32;
  int num_layers = 2;
  int epochs = 24;
  float learning_rate = 5e-3f;

  // Hybrid model.
  double hybrid_threshold = 0.20;  // paper: 20% error triggers profiling
  int ga_population = 40;          // paper: 500 (scaled for wall-clock)
  int ga_generations = 8;
  int ga_subset = 10;              // paper: 10-of-256 feature subsets

  // Flag-prediction model label budget (paper: 2 on SKL, 4 on SNB).
  int flag_label_budget = 4;
};

struct RegionOutcome {
  std::string name;
  int fold = -1;
  int oracle_label = -1;       // best of the reduced label set
  int static_label = -1;       // GNN prediction via the explored flag seq
  int dynamic_label = -1;      // counters decision tree
  double full_time = 0;        // best time in the whole space
  double static_error = 0;     // reldiff(full_time, time[static])
  double dynamic_error = 0;
  double static_speedup = 0;   // vs the default configuration
  double dynamic_speedup = 0;
  double oracle_speedup = 0;   // best label in the reduced set
  double full_speedup = 0;     // full exploration
  // Hybrid routing.
  bool needs_profiling = false;     // truth: static_error > threshold
  bool hybrid_profiled = false;     // router decision
  double hybrid_error = 0;
  double hybrid_speedup = 0;
  std::vector<float> embedding;     // out-of-fold graph vector
  float static_confidence = 0;      // max softmax prob of the static model
};

struct ExperimentResult {
  sim::ExplorationTable table;
  std::vector<int> labels;  // configuration indices of the reduced labels
  std::vector<RegionOutcome> regions;

  // Per-fold mean errors (Fig. 4).
  std::vector<double> fold_static_error;
  std::vector<double> fold_dynamic_error;

  // Flag-sequence landscape (Fig. 5 / Fig. 11).
  std::vector<double> sequence_speedup;  // avg speedup when predicting with s
  int explored_sequence = 0;             // chosen from training regions only
  double explored_speedup = 0;
  double overall_speedup = 0;    // best single sequence, train+validation
  double predicted_speedup = 0;  // per-program flag prediction model
  double oracle_seq_speedup = 0;  // per-region best sequence

  // Aggregates.
  double static_speedup = 0;       // == explored_speedup
  double dynamic_speedup = 0;
  double hybrid_speedup = 0;
  double full_speedup = 0;
  double label_oracle_speedup = 0;
  double static_accuracy = 0;      // label-exact accuracy
  double dynamic_accuracy = 0;
  double hybrid_router_accuracy = 0;
  double hybrid_profiled_fraction = 0;

  // Label traffic of the fold loops. Every fold model labels each
  // structurally distinct (region, sequence) graph once (graph::fingerprint
  // dedup), so, summed over folds:
  //   serve_queries    = folds * R * S label lookups;
  //   serve_forwards   = folds * distinct graphs actually forwarded;
  //   serve_cache_hits = serve_queries - serve_forwards (repeats of a graph
  //                      already labelled in the same fold);
  //   serve_batches    = StaticModel::predict_into calls.
  // Nothing is admitted or shed, so serve_shed, serve_rejected and
  // serve_deadline_exceeded are always 0. The serve_* names are kept
  // because the repository benchmark (benchmark/src/pipeline.cpp) reads
  // these fields under these names.
  std::uint64_t serve_queries = 0;
  std::uint64_t serve_forwards = 0;
  std::uint64_t serve_batches = 0;
  std::uint64_t serve_cache_hits = 0;
  std::uint64_t serve_shed = 0;
  std::uint64_t serve_rejected = 0;
  std::uint64_t serve_deadline_exceeded = 0;
};

ExperimentResult run_experiment(const sim::MachineDesc& machine,
                                const ExperimentOptions& options);

/// Cross-architecture transfer (Fig. 8): reuses `source`'s trained outcome,
/// translating each region's predicted configuration onto `target`'s space.
/// Returns (cross static speedup, cross dynamic speedup) on the target.
struct CrossArchResult {
  double cross_static_speedup = 0;
  double cross_dynamic_speedup = 0;
  double native_static_speedup = 0;
  double native_dynamic_speedup = 0;
};
CrossArchResult run_cross_architecture(const sim::MachineDesc& source,
                                       const sim::MachineDesc& target,
                                       const ExperimentOptions& options);

/// Input-size sensitivity (Fig. 10): optimizing with size-2's best
/// configurations and running size-1. Returns per-region speedup losses
///   L = S(size1, best-config(size1)) - S(size1, best-config(size2)).
struct InputSizeResult {
  std::vector<std::string> regions;
  std::vector<double> speedup_loss;
  double native_speedup = 0;     // size-1 optimized natively
  double transferred_speedup = 0;  // size-2 configs applied to size-1
};
InputSizeResult run_input_size_study(const sim::MachineDesc& machine,
                                     const ExperimentOptions& options);

}  // namespace irgnn::core
