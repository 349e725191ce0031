#include "core/experiment.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "graph/fingerprint.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/genetic_selector.h"
#include "support/statistics.h"
#include "support/thread_pool.h"
#include "tensor/tensor.h"

namespace irgnn::core {

namespace {

/// time of a region under the l-th reduced label.
double label_time(const sim::ExplorationTable& table,
                  const std::vector<int>& labels, std::size_t region,
                  int label) {
  return table.time[region][labels[label]];
}

/// Graphs per predict_into call when a fold model labels the distinct
/// graphs; bounds the model's inference context to a 64-graph batch.
constexpr std::size_t kPredictChunk = 64;

gnn::ModelConfig model_config(const ExperimentOptions& options,
                              int num_labels, std::uint64_t fold_seed) {
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = num_labels;
  cfg.hidden_dim = options.hidden_dim;
  cfg.num_layers = options.num_layers;
  cfg.epochs = options.epochs;
  cfg.learning_rate = options.learning_rate;
  cfg.seed = fold_seed;
  cfg.num_threads = options.num_threads;
  return cfg;
}

/// Greedy subset of sequences covering the per-region best-sequence gains
/// (the paper's procedure for selecting the flag-model's label set).
std::vector<int> reduce_sequences(
    const std::vector<std::vector<double>>& speedup_by_region_seq,
    int budget) {
  const std::size_t R = speedup_by_region_seq.size();
  const std::size_t S = R ? speedup_by_region_seq[0].size() : 0;
  std::vector<int> chosen;
  std::vector<double> covered(R, 0.0);
  while (static_cast<int>(chosen.size()) < budget &&
         chosen.size() < S) {
    int best_seq = -1;
    double best_total = -1;
    for (std::size_t s = 0; s < S; ++s) {
      if (std::find(chosen.begin(), chosen.end(), static_cast<int>(s)) !=
          chosen.end())
        continue;
      double total = 0;
      for (std::size_t r = 0; r < R; ++r)
        total += std::max(covered[r], speedup_by_region_seq[r][s]);
      if (total > best_total) {
        best_total = total;
        best_seq = static_cast<int>(s);
      }
    }
    chosen.push_back(best_seq);
    for (std::size_t r = 0; r < R; ++r)
      covered[r] =
          std::max(covered[r], speedup_by_region_seq[r][best_seq]);
  }
  return chosen;
}

}  // namespace

ExperimentResult run_experiment(const sim::MachineDesc& machine,
                                const ExperimentOptions& options) {
  ExperimentResult result;

  // The tensor kernels read a process-global parallelism cap; apply the
  // experiment's knob so "num_threads caps every parallel stage" holds for
  // library callers too, not just for benches that set it themselves.
  tensor::set_kernel_parallelism(options.num_threads);

  // Steps A+B: augmentation and graphs. The shared form pools storage, so
  // every figure of a bench run reuses one compiled dataset.
  const std::shared_ptr<const Dataset> dataset_ptr = build_dataset_shared(
      {options.num_sequences, options.seed, options.num_threads});
  const Dataset& dataset = *dataset_ptr;
  const std::size_t R = dataset.num_regions();
  const std::size_t S = dataset.num_sequences();

  // Step C: exhaustive exploration once, label reduction.
  result.table = sim::explore(machine, workloads::suite_traits(),
                              options.size_scale, options.num_threads);
  result.labels = sim::reduce_labels(result.table, options.num_labels);
  const int L = static_cast<int>(result.labels.size());
  std::vector<int> oracle = sim::best_labels(result.table, result.labels);

  result.regions.assign(R, RegionOutcome{});
  for (std::size_t r = 0; r < R; ++r) {
    RegionOutcome& out = result.regions[r];
    out.name = dataset.regions[r];
    out.oracle_label = oracle[r];
    out.full_time = result.table.time[r][result.table.best_config(r)];
    out.full_speedup = result.table.speedup(r, result.table.best_config(r));
    out.oracle_speedup =
        result.table.time[r][result.table.default_index] /
        label_time(result.table, result.labels, r, oracle[r]);
  }

  // Step D: 10-fold cross-validated static model.
  auto folds = ml::k_fold(static_cast<int>(R), options.folds, options.seed);
  // Per-(region, sequence) predicted label from the fold where the region
  // was in validation (drives Fig. 5 and the flag-selection strategies).
  std::vector<std::vector<int>> pred_by_seq(R, std::vector<int>(S, 0));

  // Many flag sequences optimize a region to the same IR, so many of the
  // R*S graphs are structurally identical. Fingerprint each graph once:
  // every fold model then labels each distinct graph once, and reads the
  // label of (r, s) as distinct_label[distinct_of[r * S + s]]. A model's
  // label for a graph never depends on which graphs share its batch, so
  // the labels are bit-identical to one query per (region, sequence).
  std::vector<const graph::ProgramGraph*> distinct;
  std::vector<std::size_t> distinct_of(R * S);
  {
    std::unordered_map<std::uint64_t, std::size_t> index_of;
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t s = 0; s < S; ++s) {
        const graph::ProgramGraph& g = dataset.graph(r, s);
        auto [it, inserted] =
            index_of.try_emplace(graph::fingerprint(g), distinct.size());
        if (inserted) distinct.push_back(&g);
        distinct_of[r * S + s] = it->second;
      }
    }
  }

  // Folds are embarrassingly parallel: each writes only the RegionOutcome /
  // pred_by_seq rows of its own (disjoint) validation regions, and every
  // model seeds from (seed, fold) — so fold order and thread count never
  // change a single bit of the result.
  ml::for_each_fold(folds.size(), options.num_threads, [&](std::size_t f) {
    const ml::Fold& fold = folds[f];
    // Training set: every augmented variant of every training region.
    std::vector<const graph::ProgramGraph*> train_graphs;
    std::vector<int> train_labels;
    for (int r : fold.train_indices) {
      for (std::size_t s = 0; s < S; ++s) {
        train_graphs.push_back(&dataset.graph(r, s));
        train_labels.push_back(oracle[r]);
      }
    }
    gnn::StaticModel model(
        model_config(options, L, hash_combine64(options.seed, f)));
    model.train(train_graphs, train_labels);

    // Label every distinct graph once, kPredictChunk graphs per call.
    std::vector<int> distinct_label(distinct.size());
    std::vector<const graph::ProgramGraph*> batch;
    std::vector<int> batch_labels;
    for (std::size_t begin = 0; begin < distinct.size();
         begin += kPredictChunk) {
      const std::size_t end = std::min(distinct.size(), begin + kPredictChunk);
      batch.assign(distinct.begin() + begin, distinct.begin() + end);
      model.predict_into(batch, batch_labels);
      std::copy(batch_labels.begin(), batch_labels.end(),
                distinct_label.begin() + begin);
    }
    auto label_of = [&](int r, std::size_t s) {
      return distinct_label[distinct_of[r * S + s]];
    };

    // Step E (explored method): best average sequence on training regions.
    double best_seq_speedup = -1;
    int explored_seq = 0;
    for (std::size_t s = 0; s < S; ++s) {
      double total = 0;
      for (int r : fold.train_indices)
        total += result.table.time[r][result.table.default_index] /
                 label_time(result.table, result.labels, r, label_of(r, s));
      double avg = total / fold.train_indices.size();
      if (avg > best_seq_speedup) {
        best_seq_speedup = avg;
        explored_seq = static_cast<int>(s);
      }
    }

    // Validation predictions: all sequences (Fig. 5) + the explored one.
    for (int r : fold.validation_indices)
      for (std::size_t s = 0; s < S; ++s) pred_by_seq[r][s] = label_of(r, s);
    // Out-of-fold embeddings (graph vectors) from the fixed sequence 0 —
    // the features of the hybrid and flag-prediction models. One evaluate()
    // call shares a single batch build between the log-probs and the
    // embeddings instead of re-packing the same graphs twice.
    batch.clear();
    for (int r : fold.validation_indices) batch.push_back(&dataset.graph(r, 0));
    gnn::Evaluation eval;
    model.evaluate(batch, eval, /*want_embeddings=*/true);
    const int L_model = model.config().num_labels;
    const int H = model.config().hidden_dim;
    for (std::size_t i = 0; i < fold.validation_indices.size(); ++i) {
      int r = fold.validation_indices[i];
      result.regions[r].fold = static_cast<int>(f);
      result.regions[r].static_label = pred_by_seq[r][explored_seq];
      result.regions[r].embedding.assign(
          eval.embeddings.begin() + i * static_cast<std::size_t>(H),
          eval.embeddings.begin() + (i + 1) * static_cast<std::size_t>(H));
      float best = -1e30f;
      for (int l = 0; l < L_model; ++l)
        best = std::max(best,
                        eval.log_probs[i * static_cast<std::size_t>(L_model) +
                                       static_cast<std::size_t>(l)]);
      result.regions[r].static_confidence = std::exp(best);
    }
    if (f == 0) result.explored_sequence = explored_seq;
  });
  // Label traffic (see ExperimentResult): each fold answers its R*S
  // queries with one forward per distinct graph; the rest are repeats.
  result.serve_queries = folds.size() * R * S;
  result.serve_forwards = folds.size() * distinct.size();
  result.serve_cache_hits = result.serve_queries - result.serve_forwards;
  result.serve_batches =
      folds.size() * ((distinct.size() + kPredictChunk - 1) / kPredictChunk);

  // Static errors/speedups from the explored-sequence predictions.
  for (std::size_t r = 0; r < R; ++r) {
    RegionOutcome& out = result.regions[r];
    double t = label_time(result.table, result.labels, r, out.static_label);
    out.static_error = relative_difference(out.full_time, t);
    out.static_speedup =
        result.table.time[r][result.table.default_index] / t;
    out.needs_profiling = out.static_error > options.hybrid_threshold;
  }

  // Dynamic baseline: classification tree on (package power, L3 miss ratio)
  // collected at the default configuration — Sanchez Barrera et al.'s best
  // reaction-based model.
  {
    // The counter pair of Sanchez Barrera et al.'s best model (package
    // power + L3 miss ratio), observed at each reaction probe.
    std::vector<std::vector<float>> features(R);
    for (std::size_t r = 0; r < R; ++r) {
      for (const auto& counters : result.table.probe_counters[r]) {
        features[r].push_back(static_cast<float>(counters.package_power));
        features[r].push_back(static_cast<float>(counters.l3_miss_ratio));
      }
    }
    // Each fold scores only its own validation regions — parallel-safe.
    ml::for_each_fold(folds.size(), options.num_threads, [&](std::size_t f) {
      const ml::Fold& fold = folds[f];
      std::vector<std::vector<float>> X;
      std::vector<int> y;
      for (int r : fold.train_indices) {
        X.push_back(features[r]);
        y.push_back(oracle[r]);
      }
      ml::DecisionTree tree;
      tree.fit(X, y);
      for (int r : fold.validation_indices) {
        RegionOutcome& out = result.regions[r];
        out.dynamic_label = tree.predict(features[r]);
        double t =
            label_time(result.table, result.labels, r, out.dynamic_label);
        out.dynamic_error = relative_difference(out.full_time, t);
        out.dynamic_speedup =
            result.table.time[r][result.table.default_index] / t;
      }
    });
  }

  // Per-fold mean errors (Fig. 4).
  result.fold_static_error.assign(folds.size(), 0.0);
  result.fold_dynamic_error.assign(folds.size(), 0.0);
  for (std::size_t f = 0; f < folds.size(); ++f) {
    double se = 0, de = 0;
    for (int r : folds[f].validation_indices) {
      se += result.regions[r].static_error;
      de += result.regions[r].dynamic_error;
    }
    double n = static_cast<double>(folds[f].validation_indices.size());
    result.fold_static_error[f] = se / n;
    result.fold_dynamic_error[f] = de / n;
  }

  // Flag-sequence landscape over validation predictions (Fig. 5).
  std::vector<std::vector<double>> seq_speedup_matrix(
      R, std::vector<double>(S, 0.0));
  result.sequence_speedup.assign(S, 0.0);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t s = 0; s < S; ++s) {
      double sp = result.table.time[r][result.table.default_index] /
                  label_time(result.table, result.labels, r,
                             pred_by_seq[r][s]);
      seq_speedup_matrix[r][s] = sp;
      result.sequence_speedup[s] += sp / static_cast<double>(R);
    }
  }
  result.overall_speedup = *std::max_element(result.sequence_speedup.begin(),
                                             result.sequence_speedup.end());
  double oracle_seq_total = 0;
  for (std::size_t r = 0; r < R; ++r)
    oracle_seq_total += *std::max_element(seq_speedup_matrix[r].begin(),
                                          seq_speedup_matrix[r].end());
  result.oracle_seq_speedup = oracle_seq_total / static_cast<double>(R);

  // Flag-prediction model (Sec. III-E second method): decision tree over the
  // GA-subset graph vectors predicting which sequence to use.
  {
    auto seq_labels = reduce_sequences(seq_speedup_matrix,
                                       options.flag_label_budget);
    // Per-region best sequence among the selected set.
    std::vector<int> best_seq_label(R, 0);
    for (std::size_t r = 0; r < R; ++r) {
      double best = -1;
      for (std::size_t l = 0; l < seq_labels.size(); ++l) {
        double sp = seq_speedup_matrix[r][seq_labels[l]];
        if (sp > best) {
          best = sp;
          best_seq_label[r] = static_cast<int>(l);
        }
      }
    }
    std::vector<std::vector<float>> X(R);
    for (std::size_t r = 0; r < R; ++r) X[r] = result.regions[r].embedding;
    // Per-fold partial speedups fold in fold order below: a deterministic
    // reduction no matter which threads ran the folds.
    std::vector<double> fold_total(folds.size(), 0.0);
    ml::for_each_fold(folds.size(), options.num_threads, [&](std::size_t f) {
      const ml::Fold& fold = folds[f];
      std::vector<std::vector<float>> train_x;
      std::vector<int> train_y;
      for (int r : fold.train_indices) {
        train_x.push_back(X[r]);
        train_y.push_back(best_seq_label[r]);
      }
      // GA feature-subset selection, then the final tree on the subset.
      const int num_features = static_cast<int>(train_x[0].size());
      ml::GeneticSelectorOptions ga;
      ga.population_size = options.ga_population;
      ga.generations = options.ga_generations;
      ga.subset_size = std::min(options.ga_subset, num_features);
      ga.seed = hash_combine64(options.seed, 0xF1A6);
      auto selected = ml::select_features(
          num_features, ml::decision_tree_cv_fitness(train_x, train_y), ga);
      auto restrict_row = [&](const std::vector<float>& row) {
        std::vector<float> out;
        for (int fidx : selected.best_subset) out.push_back(row[fidx]);
        return out;
      };
      std::vector<std::vector<float>> train_sub;
      for (const auto& row : train_x) train_sub.push_back(restrict_row(row));
      ml::DecisionTree tree;
      tree.fit(train_sub, train_y);
      for (int r : fold.validation_indices) {
        int pred = tree.predict(restrict_row(X[r]));
        fold_total[f] += seq_speedup_matrix[r][seq_labels[pred]];
      }
    });
    double total = 0;
    for (double t : fold_total) total += t;
    result.predicted_speedup = total / static_cast<double>(R);
  }

  // Hybrid model (Sec. III-D2): route regions whose predicted static error
  // exceeds the threshold to the dynamic model.
  {
    // Router features: the graph vector plus the static model's own
    // confidence (an unsure model is precisely what needs profiling).
    std::vector<std::vector<float>> X(R);
    std::vector<int> route(R);
    for (std::size_t r = 0; r < R; ++r) {
      X[r] = result.regions[r].embedding;
      X[r].push_back(result.regions[r].static_confidence);
      route[r] = result.regions[r].needs_profiling ? 1 : 0;
    }
    std::vector<int> fold_correct(folds.size(), 0);
    ml::for_each_fold(folds.size(), options.num_threads, [&](std::size_t f) {
      const ml::Fold& fold = folds[f];
      std::vector<std::vector<float>> train_x;
      std::vector<int> train_y;
      for (int r : fold.train_indices) {
        train_x.push_back(X[r]);
        train_y.push_back(route[r]);
      }
      const int num_features = static_cast<int>(train_x[0].size());
      ml::GeneticSelectorOptions ga;
      ga.population_size = options.ga_population;
      ga.generations = options.ga_generations;
      ga.subset_size = std::min(options.ga_subset, num_features);
      ga.seed = hash_combine64(options.seed, 0x6A6A);
      auto selected = ml::select_features(
          num_features, ml::decision_tree_cv_fitness(train_x, train_y), ga);
      auto restrict_row = [&](const std::vector<float>& row) {
        std::vector<float> out;
        for (int fidx : selected.best_subset) out.push_back(row[fidx]);
        return out;
      };
      std::vector<std::vector<float>> train_sub;
      for (const auto& row : train_x) train_sub.push_back(restrict_row(row));
      ml::DecisionTree router;
      router.fit(train_sub, train_y);
      for (int r : fold.validation_indices) {
        RegionOutcome& out = result.regions[r];
        out.hybrid_profiled = router.predict(restrict_row(X[r])) == 1;
        fold_correct[f] += (out.hybrid_profiled == out.needs_profiling);
        int label = out.hybrid_profiled ? out.dynamic_label
                                        : out.static_label;
        double t = label_time(result.table, result.labels, r, label);
        out.hybrid_error = relative_difference(out.full_time, t);
        out.hybrid_speedup =
            result.table.time[r][result.table.default_index] / t;
      }
    });
    int correct_routing = 0;
    for (int c : fold_correct) correct_routing += c;
    result.hybrid_router_accuracy =
        static_cast<double>(correct_routing) / static_cast<double>(R);
  }

  // Aggregates.
  double stat = 0, dyn = 0, hyb = 0, full = 0, orc = 0;
  int stat_ok = 0, dyn_ok = 0, profiled = 0;
  for (const RegionOutcome& out : result.regions) {
    stat += out.static_speedup;
    dyn += out.dynamic_speedup;
    hyb += out.hybrid_speedup;
    full += out.full_speedup;
    orc += out.oracle_speedup;
    stat_ok += (out.static_label == out.oracle_label);
    dyn_ok += (out.dynamic_label == out.oracle_label);
    profiled += out.hybrid_profiled;
  }
  double n = static_cast<double>(R);
  result.static_speedup = stat / n;
  result.explored_speedup = result.static_speedup;
  result.dynamic_speedup = dyn / n;
  result.hybrid_speedup = hyb / n;
  result.full_speedup = full / n;
  result.label_oracle_speedup = orc / n;
  result.static_accuracy = stat_ok / n;
  result.dynamic_accuracy = dyn_ok / n;
  result.hybrid_profiled_fraction = profiled / n;
  return result;
}

CrossArchResult run_cross_architecture(const sim::MachineDesc& source,
                                       const sim::MachineDesc& target,
                                       const ExperimentOptions& options) {
  ExperimentResult src = run_experiment(source, options);
  ExperimentResult tgt = run_experiment(target, options);

  auto find_config = [&](const sim::Configuration& c) -> int {
    for (std::size_t i = 0; i < tgt.table.configurations.size(); ++i)
      if (tgt.table.configurations[i] == c) return static_cast<int>(i);
    return tgt.table.default_index;
  };
  auto cross_speedup = [&](auto label_of) {
    double total = 0;
    for (std::size_t r = 0; r < src.regions.size(); ++r) {
      sim::Configuration c =
          src.table.configurations[src.labels[label_of(src.regions[r])]];
      int idx = find_config(sim::translate_configuration(c, source, target));
      total += tgt.table.speedup(r, idx);
    }
    return total / static_cast<double>(src.regions.size());
  };

  CrossArchResult out;
  out.native_static_speedup = tgt.static_speedup;
  out.native_dynamic_speedup = tgt.dynamic_speedup;
  out.cross_static_speedup =
      cross_speedup([](const RegionOutcome& r) { return r.static_label; });
  out.cross_dynamic_speedup =
      cross_speedup([](const RegionOutcome& r) { return r.dynamic_label; });
  return out;
}

InputSizeResult run_input_size_study(const sim::MachineDesc& machine,
                                     const ExperimentOptions& options) {
  InputSizeResult out;
  out.regions = workloads::input_size_subset();
  std::vector<sim::WorkloadTraits> traits;
  for (const auto& name : out.regions) {
    const workloads::RegionSpec* spec = workloads::find_region(name);
    assert(spec && "unknown region in input-size subset");
    traits.push_back(spec->traits);
  }
  sim::ExplorationTable size1 =
      sim::explore(machine, traits, 1.0, options.num_threads);
  // Each region owns its result slots; the means fold in region order after.
  const std::size_t R = out.regions.size();
  out.speedup_loss.assign(R, 0.0);
  std::vector<double> region_native(R, 0.0), region_transfer(R, 0.0);
  support::ThreadPool::global().parallel_for(
      0, static_cast<std::int64_t>(R), options.num_threads,
      [&](std::int64_t r) {
        double size2_scale =
            workloads::find_region(out.regions[r])->traits.size2_scale;
        // Explore size-2 with the same configuration enumeration.
        sim::Simulator simulator(machine);
        std::size_t best2 = 0;
        double best2_time = std::numeric_limits<double>::max();
        for (std::size_t c = 0; c < size1.configurations.size(); ++c) {
          double t = simulator
                         .simulate(traits[r], size1.configurations[c],
                                   size2_scale)
                         .cycles;
          if (t < best2_time) {
            best2_time = t;
            best2 = c;
          }
        }
        region_native[r] = size1.speedup(r, size1.best_config(r));
        region_transfer[r] = size1.speedup(r, best2);
        out.speedup_loss[r] = region_native[r] - region_transfer[r];
      });
  double native = 0, transferred = 0;
  for (std::size_t r = 0; r < R; ++r) {
    native += region_native[r];
    transferred += region_transfer[r];
  }
  out.native_speedup = native / static_cast<double>(R);
  out.transferred_speedup = transferred / static_cast<double>(R);
  return out;
}

}  // namespace irgnn::core
