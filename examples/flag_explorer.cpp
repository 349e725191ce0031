// flag_explorer: how compiler flag sequences reshape a region's IR and its
// graph — the paper's augmentation device (step A) made visible. For one
// region, prints each sampled sequence, the instruction count before/after
// and the resulting graph size; identical structural fingerprints
// (graph::fingerprint) collapse.
//
// With --predict (default) the example is also a serving client: it trains
// a small static model on the benchmark suite's exploration labels, serves
// it through a serve::InferenceServer, and streams every variant's graph
// through the server as typed Requests — variants that optimized to the
// same IR hit the fingerprint-keyed prediction cache (Response::source ==
// Cache) instead of running a forward, which is exactly the traffic pattern
// of iterative flag exploration.
#include <cstdio>
#include <map>
#include <optional>

#include "gnn/model.h"
#include "graph/fingerprint.h"
#include "graph/graph_builder.h"
#include "graph/region_extractor.h"
#include "ir/printer.h"
#include "passes/flag_sequence.h"
#include "passes/pass.h"
#include "serve/server.h"
#include "sim/exploration.h"
#include "support/argparse.h"
#include "support/table.h"
#include "workloads/suite.h"

using namespace irgnn;

namespace {

/// Trains the suite-labeled static model the served predictions come from:
/// one exploration of the whole suite labels every region with its best
/// reduced configuration, and the model learns region graph -> label.
std::shared_ptr<const gnn::StaticModel> train_suite_model(
    const sim::MachineDesc& machine, std::vector<int>* labels_out) {
  sim::ExplorationTable table =
      sim::explore(machine, workloads::suite_traits());
  std::vector<int> labels = sim::reduce_labels(table, 13);
  std::vector<int> oracle = sim::best_labels(table, labels);

  std::vector<graph::ProgramGraph> owned;
  for (const auto& spec : workloads::benchmark_suite()) {
    auto module = workloads::build_region_module(spec);
    owned.push_back(graph::build_graph(*module));
  }
  std::vector<const graph::ProgramGraph*> graphs;
  for (const auto& g : owned) graphs.push_back(&g);

  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = static_cast<int>(labels.size());
  cfg.hidden_dim = 32;
  cfg.num_layers = 2;
  cfg.epochs = 6;
  cfg.seed = 0xF1A6;
  auto model = std::make_shared<gnn::StaticModel>(cfg);
  model->train(graphs, oracle);
  if (labels_out) *labels_out = labels;
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("flag_explorer",
                   "show how flag sequences reshape a region's IR graph");
  parser.add("region", "cg 551", "region name")
      .add("sequences", "12", "number of flag sequences to sample")
      .add("seed", "11", "sampling seed")
      .add("machine", "SandyBridge",
           "machine whose exploration labels the served model learns")
      .add("predict", "true",
           "serve per-variant config predictions through an inference server")
      .add("dump-ir", "false", "print the optimized IR of the last variant");
  if (!parser.parse(argc, argv)) return 1;

  const workloads::RegionSpec* spec =
      workloads::find_region(parser.get_string("region"));
  if (!spec) {
    std::fprintf(stderr, "unknown region '%s'\n",
                 parser.get_string("region").c_str());
    return 1;
  }
  auto base = workloads::build_region_module(*spec);
  std::printf("region '%s': base module has %zu instructions\n",
              spec->name.c_str(), base->instruction_count());

  const bool predict = parser.get_bool("predict");
  std::optional<serve::InferenceServer> server;  // typed front door
  std::uint64_t served_version = 0;  // as the responses report it
  std::vector<int> labels;
  sim::MachineDesc machine = parser.get_string("machine") == "Skylake"
                                 ? sim::MachineDesc::skylake()
                                 : sim::MachineDesc::sandy_bridge();
  if (predict) {
    std::printf("training the served model on %s exploration labels...\n",
                machine.name.c_str());
    server.emplace(train_suite_model(machine, &labels));
  }

  auto sequences = passes::sample_flag_sequences(
      static_cast<std::size_t>(parser.get_int("sequences")),
      static_cast<std::uint64_t>(parser.get_int("seed")));

  std::vector<std::string> columns = {"seq", "passes", "insts", "graph_nodes",
                                      "graph_edges", "fingerprint"};
  if (predict) columns.push_back("served_config");
  Table table(columns);
  std::map<std::uint64_t, int> fingerprints;
  std::unique_ptr<ir::Module> last;
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    auto variant = base->clone();
    passes::PassManager pm(sequences[s].passes);
    pm.run(*variant);
    auto region = graph::extract_region(
        *variant, workloads::outlined_name(spec->kernel.name));
    // predict() is synchronous and the cache stores labels only, so the
    // variant graph need not outlive its own loop iteration.
    const graph::ProgramGraph pg = graph::build_graph(*region);
    const std::uint64_t fp = graph::fingerprint(pg);
    std::vector<std::string> row = {
        std::to_string(s), std::to_string(sequences[s].passes.size()),
        std::to_string(variant->instruction_count()),
        std::to_string(pg.num_nodes()), std::to_string(pg.num_edges())};
    char fp_hex[24];
    std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                  static_cast<unsigned long long>(fp));
    row.push_back(fp_hex);
    if (predict) {
      // Structurally identical variants are served from the prediction
      // cache: only the first of each fingerprint runs a forward. The
      // query path never throws — a failure is a Status.
      const serve::Response response = server->predict(serve::Request(pg));
      if (!response.ok()) {
        std::fprintf(stderr, "serve error: %s (%s)\n",
                     response.status.code_name(), response.status.message());
        return 1;
      }
      served_version = response.model_version;
      row.push_back(labels.empty()
                        ? std::to_string(response.label)
                        : std::to_string(labels[static_cast<std::size_t>(
                              response.label)]));
    }
    table.add_row(row);
    ++fingerprints[fp];
    last = std::move(variant);
  }
  table.print();
  std::printf("%zu distinct structural fingerprints across %zu sequences\n",
              fingerprints.size(), sequences.size());
  if (predict) {
    const serve::ServerStats stats = server->stats();
    std::printf("serve [model '%s' v%llu]: %llu queries -> %llu forwards in "
                "%llu micro-batches, %llu cache hits (%.0f%% of variant "
                "queries answered without a forward), %llu shed\n",
                machine.name.c_str(),
                static_cast<unsigned long long>(served_version),
                static_cast<unsigned long long>(stats.queries),
                static_cast<unsigned long long>(stats.forwards),
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.cache.hits),
                stats.queries
                    ? 100.0 * static_cast<double>(stats.cache.hits) /
                          static_cast<double>(stats.queries)
                    : 0.0,
                static_cast<unsigned long long>(stats.source_shed));
  }
  if (parser.get_bool("dump-ir") && last)
    std::printf("\n%s\n", ir::print_module(*last).c_str());
  return 0;
}
