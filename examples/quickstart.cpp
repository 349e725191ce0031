// Quickstart: the whole pipeline on one program in under a minute.
//
//   1. parse an OpenMP-style module from textual IR,
//   2. run a down-sampled -O3 flag sequence over it,
//   3. extract the outlined parallel region and build its ProGraML graph,
//   4. train a small RGCN model on the benchmark suite,
//   5. serve the model through the in-process front door
//      (serve::InferenceServer) and predict the best NUMA/prefetcher configuration for the new program
//      with a typed Request/Response round trip, then compare the served
//      choice against exhaustive exploration in the simulator.
#include <cstdio>

#include "core/experiment.h"
#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "graph/region_extractor.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "passes/flag_sequence.h"
#include "passes/pass.h"
#include "serve/server.h"
#include "sim/exploration.h"
#include "workloads/suite.h"

using namespace irgnn;

namespace {

const char* kProgram = R"(
; ModuleID = 'saxpy'
define void @saxpy.omp_outlined(i64 %n, double* %x, double* %y) "omp.outlined"="true" {
entry:
  %i.slot = alloca i64, i64 1
  store i64 0, i64* %i.slot
  br label %header
header:
  %i = load i64, i64* %i.slot
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %xp = getelementptr double, double* %x, i64 %i
  %xv = load double, double* %xp
  %scaled = fmul double %xv, 2.5
  %yp = getelementptr double, double* %y, i64 %i
  %yv = load double, double* %yp
  %sum = fadd double %scaled, %yv
  store double %sum, double* %yp
  %next = add i64 %i, 1
  store i64 %next, i64* %i.slot
  br label %header
exit:
  ret void
}
define void @saxpy(i64 %n, double* %x, double* %y) {
entry:
  call void @saxpy.omp_outlined(i64 %n, double* %x, double* %y)
  ret void
}
)";

}  // namespace

int main() {
  // 1. Parse.
  std::string error;
  auto module = ir::parse_module(kProgram, &error);
  if (!module) {
    std::fprintf(stderr, "parse error: %s\n", error.c_str());
    return 1;
  }
  std::printf("parsed module '%s' with %zu instructions\n",
              module->name().c_str(), module->instruction_count());

  // 2. One augmentation flag sequence (down-sampled -O3).
  auto sequences = passes::sample_flag_sequences(1, /*seed=*/7);
  std::printf("flag sequence: %s\n", sequences[0].to_string().c_str());
  passes::PassManager pm(sequences[0].passes);
  pm.run(*module);
  std::printf("after the sequence: %zu instructions\n",
              module->instruction_count());

  // 3. Region graph.
  auto region = graph::extract_region(*module, "saxpy.omp_outlined");
  auto pg = graph::build_graph(*region);
  std::printf("region graph: %zu nodes, %zu edges (control=%zu data=%zu "
              "call=%zu)\n",
              pg.num_nodes(), pg.num_edges(),
              pg.count_edges(graph::EdgeKind::Control),
              pg.count_edges(graph::EdgeKind::Data),
              pg.count_edges(graph::EdgeKind::Call));

  // 4. Train a small model over the benchmark suite's labels.
  const sim::MachineDesc machine = sim::MachineDesc::skylake();
  auto table = sim::explore(machine, workloads::suite_traits());
  auto labels = sim::reduce_labels(table, 13);
  auto oracle = sim::best_labels(table, labels);

  core::Dataset dataset = core::build_dataset({/*num_sequences=*/2, 7});
  std::vector<const graph::ProgramGraph*> train;
  std::vector<int> train_labels;
  for (std::size_t r = 0; r < dataset.num_regions(); ++r)
    for (std::size_t s = 0; s < dataset.num_sequences(); ++s) {
      train.push_back(&dataset.graph(r, s));
      train_labels.push_back(oracle[r]);
    }
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = static_cast<int>(labels.size());
  cfg.hidden_dim = 32;
  cfg.epochs = 8;
  gnn::StaticModel model(cfg);
  auto stats = model.train(train, train_labels);
  std::printf("trained on %zu graphs, final train accuracy %.2f\n",
              train.size(), stats.final_train_accuracy);

  // 5. Serve the prediction for the unseen saxpy region through the
  //    production front door: an InferenceServer over the trained model,
  //    asked with a typed Request. The query path is exception-free —
  //    failures come back as a Status in the Response.
  serve::InferenceServer server(serve::borrow_model(model));
  const serve::Response served = server.predict(serve::Request(pg));
  if (!served.ok()) {
    std::fprintf(stderr, "serve error: %s (%s)\n", served.status.code_name(),
                 served.status.message());
    return 1;
  }
  const int predicted = served.label;
  std::printf("served prediction for saxpy (model '%s' v%llu, %s, "
              "%lld us compute): label %d\n",
              machine.name.c_str(),
              static_cast<unsigned long long>(served.model_version),
              serve::source_name(served.source),
              static_cast<long long>(served.compute_us), predicted);
  // Asking again hits the fingerprint-keyed prediction cache.
  const serve::Response again = server.predict(serve::Request(pg));
  std::printf("repeat query served from %s\n",
              serve::source_name(again.source));
  const sim::Configuration& config = table.configurations[labels[predicted]];
  std::printf("predicted configuration for saxpy: %s\n",
              config.to_string().c_str());

  sim::WorkloadTraits traits;
  traits.region = "saxpy";
  sim::Phase phase;
  sim::MemoryStream xs;
  xs.stride_bytes = 8;
  xs.footprint_bytes = 96ull << 20;
  sim::MemoryStream ys = xs;
  ys.write_fraction = 0.5;
  phase.streams = {xs, ys};
  phase.flops_per_access = 1.0;
  phase.accesses_per_call = 3'000'000;
  traits.phases = {phase};

  sim::Simulator simulator(machine);
  double t_default =
      simulator.simulate(traits, sim::default_configuration(machine)).cycles;
  double t_predicted = simulator.simulate(traits, config).cycles;
  double best = 1e300;
  sim::Configuration best_config;
  for (const auto& candidate : table.configurations) {
    double t = simulator.simulate(traits, candidate).cycles;
    if (t < best) {
      best = t;
      best_config = candidate;
    }
  }
  std::printf("saxpy timing: default=%.2fM cycles, predicted=%.2fM (%.2fx), "
              "exhaustive best=%.2fM (%.2fx, %s)\n",
              t_default / 1e6, t_predicted / 1e6, t_default / t_predicted,
              best / 1e6, t_default / best, best_config.to_string().c_str());
  return 0;
}
