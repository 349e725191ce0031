// Streaming code-ingestion frontend (ROADMAP: "Real-code ingestion frontend
// for scenario diversity").
//
// ingest_directory walks a directory of textual-IR files — the format
// ir::print_module emits and ir::parse_module round-trips — and runs every
// file through the parse → verify → region-extract → graph-build →
// fingerprint-dedup pipeline. Four contracts:
//
//   Deterministic at every thread count. Files are sorted by their path
//   under the corpus root (lexically: a symlinked file is keyed by where it
//   sits in the corpus, not by its target) and the pipeline is partitioned
//   by file *index* across the shared
//   support::ThreadPool; the dedup pass runs serially in that index order,
//   so graph order, dedup winners and every per-file Status record are
//   bit-identical whether one thread ingests or sixteen do.
//
//   Malformed input is a record, never a crash. A file that fails to read,
//   parse or verify becomes a FileRecord carrying a Status code plus the
//   diagnostic detail ("line 12, col 7: unknown opcode ..."), and the run
//   continues — the same discipline net/codec applies to hostile frames.
//
//   Dedup is collision-safe. Two regions merge only when their fingerprints
//   AND their full structural contents match; a 64-bit fingerprint collision
//   between genuinely different graphs keeps both.
//
//   Each distinct content is parsed once. Files are read and hashed one
//   fixed window at a time; a file whose bytes equal an earlier file's
//   (compared in full, so a hash collision never merges two files) replays
//   that first occurrence's outcome — status, detail, regions, dedup
//   winners — instead of being parsed again. Memory holds the distinct
//   contents' bytes plus one window, never the whole corpus.
//
// The result feeds the mmap-able on-disk dataset cache (dataset_cache.h),
// core::load_corpus_dataset, irgnn_ingest and the benchmark's pipeline
// workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/program_graph.h"
#include "support/status.h"

namespace irgnn::corpus {

using support::Status;

struct IngestOptions {
  /// Max threads for the per-file pipeline (<= 0: all pool workers).
  /// Excluded from options_hash: results are identical for every value.
  int num_threads = 0;
  /// Collapse structurally identical regions to one graph (first occurrence
  /// in file order wins). OFF keeps every extracted region.
  bool dedup = true;
  /// Files larger than this are refused before any read (hostile-input
  /// bound, the ingest-side analogue of net::DecodeLimits).
  std::uint64_t max_file_bytes = 64ull << 20;
  /// Edge relations the built graphs carry.
  graph::GraphBuilderOptions graph_options{};
};

/// One extracted region, in deterministic global order (file index, then
/// region order within the file's module).
struct CorpusEntry {
  std::string name;            // "<module>:<region function>"
  std::uint64_t fingerprint = 0;
  std::uint32_t file_index = 0;   // into IngestResult::files
  std::uint32_t graph_index = 0;  // into IngestResult::graphs (dedup winner)
  bool duplicate = false;         // true: graph_index points at the winner
};

/// Per-input-file outcome. status.ok() means every region of the file made
/// it into the corpus; otherwise `detail` carries the diagnostic.
struct FileRecord {
  std::string path;  // lexically relative to the corpus root (sorted key)
  Status status = Status::Ok();
  std::string detail;
  std::uint32_t regions = 0;     // regions extracted from this file
  std::uint32_t duplicates = 0;  // of those, dedup'd against earlier graphs
};

struct IngestStats {
  std::uint64_t files_scanned = 0;
  std::uint64_t files_ok = 0;
  std::uint64_t files_failed = 0;
  std::uint64_t regions_total = 0;
  std::uint64_t graphs_unique = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t nodes_total = 0;  // over unique graphs
  std::uint64_t edges_total = 0;
};

struct IngestResult {
  /// Deduplicated graphs, in first-occurrence order.
  std::vector<graph::ProgramGraph> graphs;
  /// fingerprints[i] == graph::fingerprint(graphs[i]).
  std::vector<std::uint64_t> fingerprints;
  /// Every extracted region (pre-dedup), in deterministic global order.
  std::vector<CorpusEntry> entries;
  /// One record per input file, in sorted-path order.
  std::vector<FileRecord> files;
  IngestStats stats;
  /// Content hash over (relative path, bytes) of every readable input file,
  /// in sorted order — the cache key that detects a changed corpus.
  std::uint64_t corpus_hash = 0;
  /// Hash of the ingest options that shape the output (dedup, relations).
  std::uint64_t options_hash = 0;
};

/// Hash of the IngestOptions fields that change the output (num_threads and
/// max_file_bytes deliberately excluded). Part of the .irds cache key.
std::uint64_t options_hash(const IngestOptions& options);

/// Ingests every regular file under `dir` (recursively; sorted by relative
/// path). Returns non-Ok only when the directory itself is unusable —
/// per-file failures are FileRecords, and an ingest over a readable
/// directory always completes.
Status ingest_directory(const std::string& dir, const IngestOptions& options,
                        IngestResult* out);

/// Ingest over an explicit (path, contents) list — the directory walk
/// without the filesystem, used by tests and by callers that already hold
/// the bytes. `names` are the sorted keys folded into corpus_hash.
Status ingest_buffers(const std::vector<std::string>& names,
                      const std::vector<std::string>& contents,
                      const IngestOptions& options, IngestResult* out);

/// Content hash of a corpus directory — the corpus_hash an ingest over it
/// would produce — computed from file bytes alone (no parsing, no graph
/// builds). Benches use it to decide whether a .irds cache is still warm.
Status hash_corpus_dir(const std::string& dir, std::uint64_t max_file_bytes,
                       std::uint64_t* out);

/// Process-global count of build_graph calls made by ingest pipelines.
/// A warm dataset-cache load leaves it untouched — the "zero graph
/// rebuilds" acceptance gate reads it before and after.
std::uint64_t graphs_built();

}  // namespace irgnn::corpus
