// Shared pieces of irgnn_bench: the clock, order statistics, the
// result a workload fills, trace spans, child processes, /proc readers, a
// small JSON reader and the per-seed corpus.
//
// irgnn_bench measures every layer from outside: it times calls into the
// public functions of src/ and talks to irgnn_served over its wire protocol.
// It includes src/ public headers only, so the repository's bench/ helpers
// can change without changing the benchmark.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gnn/model.h"
#include "graph/program_graph.h"

namespace irgnn_bench {

// --- Clock and order statistics ---------------------------------------------

/// CLOCK_MONOTONIC in microseconds. Every process on the host reads the same
/// clock, so spans from the pipeline child and its parent share a timeline.
double now_us();

/// Nearest-rank quantile of `values` (sorted in place); 0 for an empty set.
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);

// --- What a workload run produces --------------------------------------------

struct RunResult {
  /// Metric name -> value. Names are those of BENCHMARK.json.
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness check name -> passed on every evaluation.
  std::map<std::string, bool> checks;
  /// One line per failed check, printed before the result.
  std::vector<std::string> failures;

  /// Records one evaluation of check `name`; a false `ok` keeps `message`.
  void check(const std::string& name, bool ok, const std::string& message);
  bool correct() const { return failures.empty(); }
};

// --- Trace spans (Chrome trace-event format) --------------------------------

/// One complete span on a process's timeline ("ph":"X"). Spans of one
/// (pid, tid) nest: a child lies inside its parent's interval.
struct Span {
  std::string name;
  std::string cat;
  double start_us = 0;
  double dur_us = 0;
  int pid = 0;
  int tid = 0;
};

/// One request, send to receive, written as an async span pair keyed by the
/// request id, with the daemon-reported timings and source as fields.
struct RequestSpan {
  std::uint64_t id = 0;
  double send_us = 0;
  double recv_us = 0;
  std::int32_t queue_us = 0;
  std::int32_t compute_us = 0;
  std::uint8_t source = 0;
  std::uint8_t phase = 0;
  std::uint8_t conn = 0;
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  void add(const std::string& name, const std::string& cat, double start_us,
           double end_us, int pid = 0);
  void add_request(const RequestSpan& span) { requests_.push_back(span); }

  /// Writes every span as {"traceEvents": [...]}. False on an I/O error.
  bool write(const std::string& path) const;
  /// True when the complete spans of every (pid, tid) nest properly.
  bool well_nested() const;
  std::size_t size() const { return spans_.size() + requests_.size(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<RequestSpan> requests_;
};

// --- Child processes ----------------------------------------------------------

/// A child process whose stdout is a pipe to us. The child dies with its
/// parent (PR_SET_PDEATHSIG), and the destructor kills and reaps a child
/// still running, so no error path leaves a process behind.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts argv[0] with argv. The child's environment is ours without
  /// IRGNN_NUM_THREADS: irgnn_bench runs with a worker-less pool, its
  /// children with the library default.
  bool start(const std::vector<std::string>& argv, std::string* error);
  pid_t pid() const { return pid_; }

  /// Next line of the child's stdout without its newline. False on EOF or
  /// when `timeout_ms` passes first.
  bool read_line(std::string* line, int timeout_ms);
  void signal(int sig);
  /// Waits up to `timeout_ms` for the child to exit. On timeout it is
  /// killed and false returned. `exit_code` is -1 for death by signal.
  bool wait(int timeout_ms, int* exit_code);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
};

/// CPU time of a process, all threads, in microseconds.
bool proc_cpu_us(pid_t pid, double* out);
/// Voluntary + involuntary context switches summed over a process's threads.
std::uint64_t proc_ctx_switches(pid_t pid);
/// VmHWM of a process in MiB; pid 0 reads this process.
double proc_peak_rss_mb(pid_t pid);
/// User + system CPU of this process (all threads) in microseconds.
double self_cpu_us();

// --- JSON -------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member `key` of an object, or nullptr.
  const Json* get(const std::string& key) const;
};

bool parse_json(const std::string& text, Json* out, std::string* error);
bool read_file(const std::string& path, std::string* out);

/// The parts of BENCHMARK.json irgnn_bench reads.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
  double bound = 0;    // end-to-end metrics only
};
struct BenchSpec {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};
bool load_bench_spec(const std::string& path, BenchSpec* out,
                     std::string* error);

/// %.17g, so a value keeps all its digits.
std::string format_number(double value);

// --- Build facts --------------------------------------------------------------

/// Directory for the per-seed corpora, traces and results (the build dir).
std::string state_dir();
/// Path of the irgnn_served binary built beside irgnn_bench.
std::string served_path();
/// Path of this executable, for re-running it as a child.
std::string self_path();

// --- The per-seed corpus ------------------------------------------------------

/// corpus::dump_suite({sequences, seed}) under the state dir, plus a .irds
/// of its unique graphs. Made once per (seed, size) by a child process and
/// excluded from every metric.
struct Corpus {
  std::string files_dir;     // the dumped textual-IR files
  std::string traffic_path;  // .irds of the unique graphs
  std::vector<irgnn::graph::ProgramGraph> graphs;
};

/// Makes sure the corpus for (seed, smoke) exists, then loads its graphs.
bool load_corpus(std::uint64_t seed, bool smoke, Corpus* out,
                 std::string* error);

/// The `prepare` subcommand: dumps, ingests and writes the traffic cache.
int prepare_main(int argc, char** argv);

// --- Workloads ------------------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 16;
  bool trace = false;
  bool smoke = false;
};

/// The model irgnn_served is started with, by explicit flags, and that the
/// benchmark rebuilds locally to check every answer: deterministic
/// construction stands in for shipping weights.
irgnn::gnn::ModelConfig served_model_config();

/// serve-hot / serve-miss: irgnn_served driven by an open-loop generator.
void run_serve(const RunConfig& config, const Corpus& corpus, Trace& trace,
               RunResult& result);
/// pipeline: ingest -> .irds -> run_experiment, each iteration in a child.
void run_pipeline(const RunConfig& config, const Corpus& corpus,
                  Trace& trace, RunResult& result);
/// The `run-pipeline` subcommand: one pipeline iteration (the child side).
int pipeline_child_main(int argc, char** argv);
/// Per-layer replays on the workload's graphs: codec, fingerprint, batched
/// predict and the forward's GEMM, each timed call by call.
void run_replays(const std::vector<irgnn::graph::ProgramGraph>& graphs,
                 Trace& trace, RunResult& result);
/// The `compare` subcommand.
int compare_main(int argc, char** argv);

}  // namespace irgnn_bench
