// Shared scaffolding for the figure-reproduction benches: common CLI flags
// (scale knobs) and machine selection.
#pragma once

#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "support/argparse.h"
#include "support/table.h"
#include "tensor/tensor.h"

namespace irgnn::bench {

/// Registers the runtime knobs every bench accepts with identical names and
/// semantics: --threads and --csv. The fig benches get them via
/// make_parser(); microbench_kernels calls this directly instead of
/// re-declaring the flags with drifting help text or defaults.
inline ArgParser& add_runtime_flags(ArgParser& parser,
                                    const std::string& default_threads = "0") {
  parser
      .add("threads", default_threads,
           "max worker threads (0: all cores; results are identical "
           "for every value)")
      .add("csv", "", "optional path to also write the table as CSV");
  return parser;
}

/// Reads --threads, applies it to the process-global tensor kernel
/// parallelism cap, and returns it — the one place a bench interprets it.
inline int apply_threads(const ArgParser& parser) {
  const int threads = static_cast<int>(parser.get_int("threads"));
  tensor::set_kernel_parallelism(threads);
  return threads;
}

inline ArgParser make_parser(const std::string& name,
                             const std::string& description) {
  ArgParser parser(name, description);
  parser.add("sequences", "4", "number of augmentation flag sequences (paper: 1000)")
      .add("epochs", "8", "GNN training epochs per fold")
      .add("hidden", "32", "GNN hidden dimension (paper: 256)")
      .add("layers", "2", "RGCN layers")
      .add("folds", "10", "cross-validation folds")
      .add("labels", "13", "reduced label count")
      .add("seed", "24069", "master random seed");
  add_runtime_flags(parser);
  return parser;
}

inline core::ExperimentOptions options_from(const ArgParser& parser) {
  core::ExperimentOptions options;
  options.num_sequences = static_cast<std::size_t>(parser.get_int("sequences"));
  options.epochs = static_cast<int>(parser.get_int("epochs"));
  options.hidden_dim = static_cast<int>(parser.get_int("hidden"));
  options.num_layers = static_cast<int>(parser.get_int("layers"));
  options.folds = static_cast<int>(parser.get_int("folds"));
  options.num_labels = static_cast<int>(parser.get_int("labels"));
  options.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  options.num_threads = apply_threads(parser);
  return options;
}

inline void finish(const Table& table, const ArgParser& parser) {
  table.print();
  std::string csv = parser.get_string("csv");
  if (!csv.empty() && table.write_csv(csv))
    std::printf("(csv written to %s)\n", csv.c_str());
}

}  // namespace irgnn::bench
