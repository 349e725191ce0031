// `irgnn_bench compare --base DIR --head DIR`: one row per (workload, metric)
// over two sets of results files, with a verdict by the pairs-and-spread
// rule:
//
//   improved    the head wins at least 9 in 10 pairs (ties count for
//               neither) and the medians differ by more than the base's
//               interquartile range;
//   regressed   an end-to-end metric's head median is worse than the base
//               median by more than the metric's bound in BENCHMARK.json (a
//               per-layer metric: the base wins 9 in 10 pairs by more than
//               the base's spread);
//   unresolved  an end-to-end metric whose base spread is wider than its
//               bound, unless every head run beats every base run;
//   unchanged   otherwise.
//
// Pairs match runs by seed. End-to-end metrics come from --trace 0 files,
// per-layer metrics from --trace 1 files. Exits 1 when any end-to-end row is
// regressed or unresolved.
#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "support/argparse.h"
#include "support/table.h"

namespace irgnn_bench {

namespace {

/// One results file: its workload, seed, trace mode and metric values.
struct ResultFile {
  std::string workload;
  double seed = 0;
  bool traced = false;
  std::map<std::string, double> values;
};

bool load_results(const std::string& dir, std::vector<ResultFile>* out,
                  std::string* error) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    *error = "cannot open " + dir;
    return false;
  }
  std::vector<std::string> names;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0)
      names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    std::string text;
    Json root;
    if (!read_file(dir + "/" + name, &text) || !parse_json(text, &root, error)) {
      *error = dir + "/" + name + ": " + *error;
      return false;
    }
    ResultFile file;
    for (const auto& [key, value] : root.object) {
      if (key == "workload") file.workload = value.string;
      else if (key == "seed") file.seed = value.number;
      else if (key == "trace") file.traced = value.number != 0;
      else if (value.type == Json::Type::kNumber) file.values[key] = value.number;
    }
    out->push_back(std::move(file));
  }
  return true;
}

struct Side {
  std::vector<double> seeds;
  std::vector<double> values;  // in seed order
  double q1 = 0, med = 0, q3 = 0;
};

Side collect(const std::vector<ResultFile>& files, const std::string& workload,
             bool traced, const std::string& metric) {
  std::vector<std::pair<double, double>> rows;
  for (const ResultFile& f : files) {
    if (f.workload != workload || f.traced != traced) continue;
    auto at = f.values.find(metric);
    if (at != f.values.end()) rows.emplace_back(f.seed, at->second);
  }
  std::sort(rows.begin(), rows.end());
  Side side;
  for (const auto& [seed, value] : rows) {
    side.seeds.push_back(seed);
    side.values.push_back(value);
  }
  std::vector<double> sorted = side.values;
  side.q1 = quantile(sorted, 0.25);
  side.med = quantile(sorted, 0.5);
  side.q3 = quantile(sorted, 0.75);
  return side;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

int compare_main(int argc, char** argv) {
  irgnn::ArgParser parser("irgnn_bench compare",
                          "compare two sets of results files metric by metric");
  parser.add("base", "", "directory of the base (parent) results files")
      .add("head", "", "directory of the head (change) results files")
      .add("benchmark", "BENCHMARK.json", "benchmark definition (bounds)");
  if (!parser.parse(argc, argv)) return 1;
  BenchSpec spec;
  std::vector<ResultFile> base, head;
  std::string error;
  if (!load_bench_spec(parser.get_string("benchmark"), &spec, &error) ||
      !load_results(parser.get_string("base"), &base, &error) ||
      !load_results(parser.get_string("head"), &head, &error)) {
    std::fprintf(stderr, "compare: %s\n", error.c_str());
    return 1;
  }

  irgnn::Table table({"workload", "metric", "unit", "base q1/med/q3",
                      "head q1/med/q3", "change", "head wins", "verdict"});
  int gated_failures = 0, rows = 0;
  for (const std::string& workload : spec.workloads) {
    for (const bool per_layer : {false, true}) {
      for (const MetricSpec& metric :
           per_layer ? spec.per_layer : spec.end_to_end) {
        const Side a = collect(base, workload, per_layer, metric.name);
        const Side b = collect(head, workload, per_layer, metric.name);
        if (a.values.empty() || b.values.empty()) continue;
        ++rows;
        // Pair runs by seed; without common seeds, by seed order.
        std::vector<std::pair<double, double>> pairs;
        for (std::size_t i = 0; i < a.values.size(); ++i)
          for (std::size_t j = 0; j < b.values.size(); ++j)
            if (a.seeds[i] == b.seeds[j]) pairs.emplace_back(a.values[i], b.values[j]);
        if (pairs.empty())
          for (std::size_t i = 0; i < std::min(a.values.size(), b.values.size()); ++i)
            pairs.emplace_back(a.values[i], b.values[i]);
        const double sign = metric.better == "higher" ? -1.0 : 1.0;
        auto better = [&](double x, double y) { return sign * (x - y) < 0; };
        int head_wins = 0, base_wins = 0;
        for (const auto& [x, y] : pairs) {
          if (better(y, x)) ++head_wins;
          if (better(x, y)) ++base_wins;
        }
        const double n = static_cast<double>(pairs.size());
        const double diff = b.med - a.med;
        const double worse_share = a.med != 0 ? sign * diff / std::abs(a.med) : 0;
        const double spread = a.q3 - a.q1;
        const double spread_share = a.med != 0 ? spread / std::abs(a.med) : 0;
        // Every head run better than every base run.
        double worst_head = -HUGE_VAL, best_base = HUGE_VAL;
        for (double v : b.values) worst_head = std::max(worst_head, sign * v);
        for (double v : a.values) best_base = std::min(best_base, sign * v);
        const bool separated = worst_head < best_base;
        std::string verdict = "unchanged";
        if (head_wins >= 0.9 * n && std::abs(diff) > spread && sign * diff < 0) {
          verdict = "improved";
        } else if (!per_layer) {
          if (worse_share > metric.bound) verdict = "regressed";
          else if (spread_share > metric.bound && !separated) verdict = "unresolved";
        } else if (base_wins >= 0.9 * n && std::abs(diff) > spread && sign * diff > 0) {
          verdict = "regressed";
        }
        if (!per_layer && (verdict == "regressed" || verdict == "unresolved"))
          ++gated_failures;
        table.add_row({workload, metric.name, metric.unit,
                       fmt(a.q1) + " / " + fmt(a.med) + " / " + fmt(a.q3),
                       fmt(b.q1) + " / " + fmt(b.med) + " / " + fmt(b.q3),
                       a.med != 0 ? fmt(100 * diff / std::abs(a.med)) + "%" : "-",
                       std::to_string(head_wins) + "/" + std::to_string(pairs.size()),
                       verdict + (per_layer ? "" : " (bound " + fmt(100 * metric.bound) + "%)")});
      }
    }
  }
  table.print();
  if (rows == 0) {
    std::fprintf(stderr, "compare: no metric present on both sides\n");
    return 1;
  }
  std::printf("%d end-to-end row(s) regressed or unresolved\n", gated_failures);
  return gated_failures == 0 ? 0 : 1;
}

}  // namespace irgnn_bench
