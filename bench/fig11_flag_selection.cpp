// Fig. 11 — Average speedup across all validation regions using the four
// flag-sequence selection strategies: explored (best sequence on training
// regions), overall (best single sequence a posteriori), predicted (the
// per-program flag-prediction decision tree) and oracle (best sequence per
// region). Higher is better.
#include "bench/bench_common.h"

using namespace irgnn;

int main(int argc, char** argv) {
  ArgParser parser = bench::make_parser(
      "fig11_flag_selection", "Fig. 11: flag-sequence selection strategies");
  if (!parser.parse(argc, argv)) return 1;
  core::ExperimentOptions options = bench::options_from(parser);

  Table table({"machine", "explored_flag_seq", "overall_flag_seq",
               "predicted_flag_seq", "oracle_flag_seq"});
  for (const auto& machine :
       {sim::MachineDesc::skylake(), sim::MachineDesc::sandy_bridge()}) {
    core::ExperimentResult res = core::run_experiment(machine, options);
    table.add_row({machine.name, Table::fmt(res.explored_speedup),
                   Table::fmt(res.overall_speedup),
                   Table::fmt(res.predicted_speedup),
                   Table::fmt(res.oracle_seq_speedup)});
  }
  std::printf("\n=== Fig. 11 flag-selection strategies (higher is better) "
              "===\n");
  bench::finish(table, parser);
  return 0;
}
