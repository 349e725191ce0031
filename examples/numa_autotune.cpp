// numa_autotune: exhaustive NUMA/prefetcher tuning of one benchmark region
// on the simulated machine — the "step C" exploration the paper pays once
// to label its dataset. Prints the top configurations, the default, and the
// collected performance counters.
//
// With --gnn (default) the example also answers the deployment question the
// paper poses: what would the trained predictor have chosen *without*
// exploring? It trains the static model leave-one-out (every suite region
// except the target), serves it through a serve::InferenceServer and
// queries the target region's graph through the typed Request/Response
// front door — the same serving path a production tuner would hit — then
// scores the served prediction against the exhaustive exploration it just
// ran.
#include <algorithm>
#include <cstdio>

#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "serve/server.h"
#include "sim/exploration.h"
#include "support/argparse.h"
#include "support/table.h"
#include "workloads/suite.h"

using namespace irgnn;

int main(int argc, char** argv) {
  ArgParser parser("numa_autotune",
                   "exhaustively tune one region over the NUMA/prefetch space");
  parser.add("region", "ft step 2", "region name (see workloads/suite.h)")
      .add("machine", "SandyBridge", "SandyBridge or Skylake")
      .add("top", "8", "how many configurations to print")
      .add("gnn", "true",
           "also query the leave-one-out GNN predictor through the "
           "inference server and score its choice");
  if (!parser.parse(argc, argv)) return 1;

  const workloads::RegionSpec* spec =
      workloads::find_region(parser.get_string("region"));
  if (!spec) {
    std::fprintf(stderr, "unknown region '%s'; available:\n",
                 parser.get_string("region").c_str());
    for (const auto& s : workloads::benchmark_suite())
      std::fprintf(stderr, "  %s\n", s.name.c_str());
    return 1;
  }
  sim::MachineDesc machine = parser.get_string("machine") == "Skylake"
                                 ? sim::MachineDesc::skylake()
                                 : sim::MachineDesc::sandy_bridge();
  const bool use_gnn = parser.get_bool("gnn");

  // One exploration covers both uses: the target's exhaustive table row,
  // and (with --gnn) the oracle labels the leave-one-out model trains on.
  std::vector<sim::WorkloadTraits> traits =
      use_gnn ? workloads::suite_traits()
              : std::vector<sim::WorkloadTraits>{spec->traits};
  sim::ExplorationTable table = sim::explore(machine, traits);
  const std::size_t row = use_gnn ? table.region_index(spec->traits.region)
                                  : 0;
  std::printf("explored %zu configurations of '%s' on %s\n",
              table.configurations.size(), spec->name.c_str(),
              machine.name.c_str());

  std::vector<std::size_t> order(table.configurations.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return table.time[row][a] < table.time[row][b];
  });

  Table top({"rank", "configuration", "cycles(M)", "speedup_vs_default"});
  for (int i = 0; i < parser.get_int("top"); ++i) {
    std::size_t c = order[i];
    top.add_row({std::to_string(i + 1),
                 table.configurations[c].to_string(),
                 Table::fmt(table.time[row][c] / 1e6, 2),
                 Table::fmt(table.speedup(row, c))});
  }
  top.add_row({"-", "(default) " +
                        table.configurations[table.default_index].to_string(),
               Table::fmt(table.time[row][table.default_index] / 1e6, 2),
               "1.000"});
  top.print();

  const sim::PerfCounters& counters = table.default_counters[row];
  std::printf("\ncounters at the default configuration:\n"
              "  package power       %.1f W\n"
              "  L3 miss ratio       %.3f\n"
              "  remote access ratio %.3f\n"
              "  bandwidth util      %.3f\n"
              "  IPC per core        %.3f\n",
              counters.package_power, counters.l3_miss_ratio,
              counters.remote_access_ratio, counters.bandwidth_utilization,
              counters.ipc);

  if (!use_gnn) return 0;

  // --- Served prediction: what the deployed model would have chosen -------
  std::vector<int> labels = sim::reduce_labels(table, 13);
  std::vector<int> oracle = sim::best_labels(table, labels);

  std::vector<graph::ProgramGraph> owned;
  std::vector<const graph::ProgramGraph*> train_graphs;
  std::vector<int> train_labels;
  graph::ProgramGraph target_graph;
  const auto& suite = workloads::benchmark_suite();
  owned.reserve(suite.size());
  for (std::size_t r = 0; r < suite.size(); ++r) {
    auto module = workloads::build_region_module(suite[r]);
    owned.push_back(graph::build_graph(*module));
    if (suite[r].name == spec->name) {
      target_graph = owned.back();  // held out of training
      continue;
    }
    train_graphs.push_back(&owned.back());
    train_labels.push_back(oracle[r]);
  }

  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = static_cast<int>(labels.size());
  cfg.hidden_dim = 32;
  cfg.num_layers = 2;
  cfg.epochs = 6;
  cfg.seed = 0xA070;
  std::printf("\ntraining the leave-one-out predictor (%zu regions)...\n",
              train_graphs.size());
  auto model = std::make_shared<gnn::StaticModel>(cfg);
  model->train(train_graphs, train_labels);

  serve::InferenceServer server(std::move(model));
  const serve::Response first = server.predict(serve::Request(target_graph));
  const serve::Response repeat = server.predict(serve::Request(target_graph));
  if (!first.ok() || !repeat.ok()) {
    std::fprintf(stderr, "serve error: %s\n", first.ok()
                                                  ? repeat.status.code_name()
                                                  : first.status.code_name());
    return 1;
  }
  const int predicted = first.label;
  const std::size_t predicted_config =
      static_cast<std::size_t>(labels[static_cast<std::size_t>(predicted)]);
  const std::size_t oracle_config = static_cast<std::size_t>(
      labels[static_cast<std::size_t>(oracle[row])]);

  const serve::ServerStats stats = server.stats();
  std::printf("\nserved prediction (model '%s' v%llu, %llu queries -> %llu "
              "forwards, %llu cache hits; first answer from %s in %lld us "
              "queue + %lld us compute, repeat from %s):\n"
              "  predicted   %s  speedup %.3f\n"
              "  label-set best %s  speedup %.3f\n"
              "  exhaustive best %s  speedup %.3f\n",
              machine.name.c_str(),
              static_cast<unsigned long long>(first.model_version),
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.forwards),
              static_cast<unsigned long long>(stats.cache.hits),
              serve::source_name(first.source),
              static_cast<long long>(first.queue_us),
              static_cast<long long>(first.compute_us),
              serve::source_name(repeat.source),
              table.configurations[predicted_config].to_string().c_str(),
              table.speedup(row, predicted_config),
              table.configurations[oracle_config].to_string().c_str(),
              table.speedup(row, oracle_config),
              table.configurations[table.best_config(row)].to_string().c_str(),
              table.speedup(row, table.best_config(row)));
  if (repeat.label != predicted || repeat.source != serve::Source::Cache) {
    std::fprintf(stderr,
                 "BUG: cached prediction differs from the served one\n");
    return 1;
  }
  return 0;
}
