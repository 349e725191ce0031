// Fig. 8 — Cross-architecture prediction: training on one
// micro-architecture and validating on the other (with configuration
// translation), for both the static and the dynamic model, on both targets.
// Cross prediction loses some gains but stays clearly profitable (~1.7x in
// the paper).
#include "bench/bench_common.h"

using namespace irgnn;

int main(int argc, char** argv) {
  ArgParser parser = bench::make_parser(
      "fig8_cross_arch", "Fig. 8: native vs cross-architecture prediction");
  if (!parser.parse(argc, argv)) return 1;
  core::ExperimentOptions options = bench::options_from(parser);

  const sim::MachineDesc snb = sim::MachineDesc::sandy_bridge();
  const sim::MachineDesc skl = sim::MachineDesc::skylake();

  Table table({"target", "native_static", "cross_static", "native_dynamic",
               "cross_dynamic"});
  {
    core::CrossArchResult to_skl =
        core::run_cross_architecture(snb, skl, options);
    table.add_row({"Skylake", Table::fmt(to_skl.native_static_speedup),
                   Table::fmt(to_skl.cross_static_speedup),
                   Table::fmt(to_skl.native_dynamic_speedup),
                   Table::fmt(to_skl.cross_dynamic_speedup)});
  }
  {
    core::CrossArchResult to_snb =
        core::run_cross_architecture(skl, snb, options);
    table.add_row({"SandyBridge", Table::fmt(to_snb.native_static_speedup),
                   Table::fmt(to_snb.cross_static_speedup),
                   Table::fmt(to_snb.native_dynamic_speedup),
                   Table::fmt(to_snb.cross_dynamic_speedup)});
  }
  std::printf("\n=== Fig. 8 cross-architecture speedups "
              "(train on the other machine, translate labels) ===\n");
  bench::finish(table, parser);
  return 0;
}
