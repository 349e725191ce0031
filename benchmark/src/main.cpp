// irgnn_bench: the repository's benchmark. One run measures one workload:
//
//   irgnn_bench --workload serve-hot|serve-miss|pipeline --seed S
//               --seconds N --trace 0|1
//
// It prints every metric by name with its unit, writes a flat results file
// under the build directory, and ends stdout with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
// per-layer metrics (--trace 1, which also writes a Chrome trace). Any
// failed correctness check makes "correct" false and the exit code 1.
//
// Other modes:
//   irgnn_bench --smoke             every workload at smoke size, both trace
//                                   modes, checked against BENCHMARK.json
//   irgnn_bench compare --base DIR --head DIR
//   irgnn_bench prepare ... / run-pipeline ...   (children of a run)
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "bench.h"
#include "support/argparse.h"
#include "support/table.h"

namespace irgnn_bench {
namespace {

namespace fs = std::filesystem;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

/// Checks every run of a workload performs; --smoke asserts they ran.
std::vector<std::string> expected_checks(const std::string& workload,
                                         bool traced) {
  std::vector<std::string> checks =
      workload == "pipeline"
          ? std::vector<std::string>{"ingest_clean", "cache_zero_rebuilds",
                                     "pipeline_deterministic"}
          : std::vector<std::string>{"labels", "conservation", "drain"};
  if (traced) checks.push_back("trace_nested");
  return checks;
}

int run_main(const RunConfig& config, const BenchSpec& spec,
             const std::string& results_dir) {
  Corpus corpus;
  std::string error;
  if (!load_corpus(config.seed, config.smoke, &corpus, &error)) {
    std::fprintf(stderr, "irgnn_bench: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "irgnn_bench: %s seed %llu, %zu graphs\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               corpus.graphs.size());

  Trace trace(config.trace);
  RunResult result;
  if (config.workload == "pipeline")
    run_pipeline(config, corpus, trace, result);
  else
    run_serve(config, corpus, trace, result);

  std::string trace_path;
  if (config.trace && result.correct()) {
    run_replays(corpus.graphs, trace, result);
    fs::create_directories(state_dir() + "/traces");
    trace_path = state_dir() + "/traces/" + config.workload + ".json";
    result.check("trace_nested", trace.well_nested() && trace.write(trace_path),
                 "trace spans do not nest, or " + trace_path + " unwritable");
  }

  // A run that failed before sending anything still attempted one thing, its
  // set-up, and that failed.
  if (result.attempted == 0) result.attempted = result.failed = 1;

  // Every end-to-end metric is measured by every workload; a per-layer
  // metric of a layer the workload does not run reads 0.
  std::vector<std::string> unmeasured;
  for (const MetricSpec& metric : spec.end_to_end)
    if (result.metrics.count(metric.name) == 0 && result.correct())
      result.failures.push_back("end-to-end metric " + metric.name +
                                " not measured");
  if (config.trace)
    for (const MetricSpec& metric : spec.per_layer)
      if (result.metrics.count(metric.name) == 0) unmeasured.push_back(metric.name);

  std::printf("irgnn_bench %s seed=%llu seconds=%g trace=%d%s | %s, %ld cpus, "
              "%s build, %s, rev %s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.smoke ? " smoke" : "",
              cpu_model().c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
              IRGNN_BENCH_BUILD_TYPE, IRGNN_BENCH_COMPILER, IRGNN_BENCH_GIT_REV);
  irgnn::Table table({"metric", "value", "unit", "kind"});
  auto row = [&](const MetricSpec& metric, const char* kind) {
    auto at = result.metrics.find(metric.name);
    char value[32] = "n/a";
    if (at != result.metrics.end())
      std::snprintf(value, sizeof(value), "%.6g", at->second);
    table.add_row({metric.name, value, metric.unit, kind});
  };
  for (const MetricSpec& metric : spec.end_to_end)
    row(metric, config.trace ? "end-to-end (traced run)" : "end-to-end");
  if (config.trace)
    for (const MetricSpec& metric : spec.per_layer) row(metric, "per-layer");
  table.print();
  if (!trace_path.empty())
    std::printf("trace: %s (%zu spans)\n", trace_path.c_str(), trace.size());
  std::string checks = "# checks:";
  for (const auto& [name, ok] : result.checks)
    checks += " " + name + "=" + (ok ? "ok" : "FAILED");
  std::printf("%s\n# unmeasured:", checks.c_str());
  for (std::size_t i = 0; i < unmeasured.size(); ++i)
    std::printf("%s%s", i ? "," : " ", unmeasured[i].c_str());
  std::printf("\n");
  for (const std::string& failure : result.failures)
    std::printf("FAILED: %s\n", failure.c_str());

  // The flat results file `compare` reads: run facts, host facts, metrics.
  fs::create_directories(results_dir);
  const std::string results_path =
      results_dir + "/" + config.workload + "-seed" +
      std::to_string(config.seed) + "-trace" + (config.trace ? "1" : "0") +
      ".json";
  {
    std::ofstream out(results_path);
    out << "{\"workload\": " << json_string(config.workload)
        << ", \"seed\": " << config.seed << ", \"seconds\": " << config.seconds
        << ", \"trace\": " << (config.trace ? 1 : 0)
        << ", \"smoke\": " << (config.smoke ? "true" : "false")
        << ", \"correct\": " << (result.correct() ? "true" : "false")
        << ", \"attempted\": " << result.attempted
        << ", \"failed\": " << result.failed
        << ", \"host.cpu\": " << json_string(cpu_model())
        << ", \"host.nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"host.build_type\": " << json_string(IRGNN_BENCH_BUILD_TYPE)
        << ", \"host.compiler\": " << json_string(IRGNN_BENCH_COMPILER)
        << ", \"host.git_rev\": " << json_string(IRGNN_BENCH_GIT_REV);
    for (const auto& [name, value] : result.metrics)
      out << ", " << json_string(name) << ": " << format_number(value);
    out << "}\n";
  }
  std::printf("results: %s\n", results_path.c_str());

  const auto& reported = config.trace ? spec.per_layer : spec.end_to_end;
  std::string line = std::string("{\"correct\": ") +
                     (result.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    auto at = result.metrics.find(reported[i].name);
    line += (i ? ", " : "") + json_string(reported[i].name) + ": {\"value\": " +
            format_number(at == result.metrics.end() ? 0.0 : at->second) +
            ", \"unit\": " + json_string(reported[i].unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  return result.correct() ? 0 : 1;
}

/// Runs every workload in both trace modes at smoke size, each as a child,
/// and checks its output against BENCHMARK.json and the expected checks.
int smoke_main(const BenchSpec& spec, const std::string& benchmark_path) {
  int failures = 0;
  auto fail = [&](const std::string& what) {
    ++failures;
    std::printf("SMOKE FAILED: %s\n", what.c_str());
  };
  std::set<std::string> unmeasured_everywhere;
  for (const MetricSpec& metric : spec.per_layer)
    unmeasured_everywhere.insert(metric.name);
  for (const std::string& workload : spec.workloads) {
    for (const int traced : {0, 1}) {
      const std::string label =
          workload + " --trace " + std::to_string(traced);
      std::printf("=== %s\n", label.c_str());
      std::fflush(stdout);
      Child child;
      std::string error;
      if (!child.start({self_path(), "--workload", workload, "--seed", "1",
                        "--seconds", "2", "--trace", std::to_string(traced),
                        "--smoke", "--benchmark", benchmark_path,
                        "--results-dir", state_dir() + "/results-smoke"},
                       &error)) {
        fail(label + ": " + error);
        continue;
      }
      std::string line, last;
      std::map<std::string, std::string> checks;
      std::set<std::string> unmeasured;
      while (child.read_line(&line, 170000)) {
        std::printf("  %s\n", line.c_str());
        std::istringstream words(line);
        std::string word;
        words >> word;
        if (line.rfind("# checks:", 0) == 0) {
          words >> word;
          while (words >> word) {
            const std::size_t eq = word.find('=');
            checks[word.substr(0, eq)] = word.substr(eq + 1);
          }
        } else if (line.rfind("# unmeasured:", 0) == 0) {
          words >> word;
          std::string names;
          words >> names;
          std::istringstream list(names);
          while (std::getline(list, word, ','))
            if (!word.empty()) unmeasured.insert(word);
        }
        if (!line.empty()) last = line;
      }
      int code = -1;
      if (!child.wait(10000, &code) || code != 0)
        fail(label + ": exit code " + std::to_string(code));

      Json result;
      if (!parse_json(last, &result, &error) || result.object.size() != 4 ||
          result.get("correct") == nullptr || !result.get("correct")->boolean ||
          result.get("attempted") == nullptr ||
          result.get("attempted")->number < 1 ||
          result.get("failed") == nullptr ||
          result.get("metrics") == nullptr) {
        fail(label + ": last line is not a correct result");
        continue;
      }
      const auto& wanted = traced ? spec.per_layer : spec.end_to_end;
      const Json& metrics = *result.get("metrics");
      if (metrics.object.size() != wanted.size())
        fail(label + ": " + std::to_string(metrics.object.size()) +
             " metrics printed, BENCHMARK.json names " +
             std::to_string(wanted.size()));
      for (const MetricSpec& metric : wanted) {
        const Json* m = metrics.get(metric.name);
        if (m == nullptr || m->get("value") == nullptr ||
            m->get("unit") == nullptr || m->get("unit")->string != metric.unit)
          fail(label + ": metric " + metric.name + " missing or mis-united");
      }
      for (const std::string& check : expected_checks(workload, traced != 0))
        if (checks[check] != "ok") fail(label + ": check " + check + " did not pass");
      if (traced) {
        std::set<std::string> still;
        for (const std::string& name : unmeasured_everywhere)
          if (unmeasured.count(name)) still.insert(name);
        unmeasured_everywhere.swap(still);
      }
    }
  }
  for (const std::string& name : unmeasured_everywhere)
    fail("per-layer metric " + name + " is measured by no workload");
  std::printf(failures ? "smoke: %d failure(s)\n" : "smoke: all checks passed\n",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace irgnn_bench

int main(int argc, char** argv) {
  using namespace irgnn_bench;
  const std::string sub = argc > 1 ? argv[1] : "";
  if (sub == "prepare" || sub == "run-pipeline" || sub == "compare") {
    // The subcommand word is consumed; its parser sees argv shifted by one.
    std::vector<char*> rest = {argv[0]};
    for (int i = 2; i < argc; ++i) rest.push_back(argv[i]);
    const int n = static_cast<int>(rest.size());
    if (sub == "prepare") return prepare_main(n, rest.data());
    if (sub == "run-pipeline") return pipeline_child_main(n, rest.data());
    return compare_main(n, rest.data());
  }

  irgnn::ArgParser parser(
      "irgnn_bench",
      "the repository benchmark: serve-hot, serve-miss and pipeline "
      "workloads; see benchmark/README.md");
  parser.add("workload", "", "serve-hot | serve-miss | pipeline")
      .add("seed", "1", "input seed: corpus, request draws, experiment")
      .add("seconds", "30", "measured seconds")
      .add("trace", "0", "1: traced run reporting the per-layer metrics")
      .add("smoke", "false",
           "small sizes; without --workload, check every workload")
      .add("benchmark", "BENCHMARK.json", "benchmark definition")
      .add("results-dir", "", "where results files go (default: <build>/results)");
  if (!parser.parse(argc, argv)) return 2;
  if (std::string(IRGNN_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "irgnn_bench: refusing to measure a %s build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 IRGNN_BENCH_BUILD_TYPE);
    return 2;
  }
  BenchSpec spec;
  std::string error;
  if (!load_bench_spec(parser.get_string("benchmark"), &spec, &error)) {
    std::fprintf(stderr, "irgnn_bench: %s\n", error.c_str());
    return 2;
  }

  RunConfig config;
  config.workload = parser.get_string("workload");
  config.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  config.seconds = parser.get_double("seconds");
  config.trace = parser.get_int("trace") != 0;
  config.smoke = parser.get_bool("smoke");
  if (config.smoke && config.workload.empty())
    return smoke_main(spec, parser.get_string("benchmark"));
  bool known = false;
  for (const std::string& w : spec.workloads) known = known || w == config.workload;
  if (!known || config.seconds <= 0) {
    std::fprintf(stderr, "irgnn_bench: unknown workload \"%s\" or bad --seconds\n%s",
                 config.workload.c_str(), parser.usage().c_str());
    return 2;
  }
  // This process's pool runs worker-less: the generator's threads are the
  // only ones it runs during a phase, and replays time one thread.
  ::setenv("IRGNN_NUM_THREADS", "1", 1);
  std::string results_dir = parser.get_string("results-dir");
  if (results_dir.empty()) results_dir = state_dir() + "/results";
  return run_main(config, spec, results_dir);
}
