#include "corpus/ingest.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <unordered_map>

#include "graph/fingerprint.h"
#include "graph/region_extractor.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "support/inline_function.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace irgnn::corpus {

namespace {

namespace fs = std::filesystem;

std::atomic<std::uint64_t> g_graphs_built{0};

/// Deterministic hash over a byte range (same fold the fingerprint uses).
std::uint64_t hash_bytes(const char* data, std::size_t size) {
  std::uint64_t h = hash_combine64(0xC0DEC0DEull, size);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    h = hash_combine64(h, word);
  }
  std::uint64_t tail = 0;
  for (std::size_t k = 0; i + k < size; ++k)
    tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i + k]))
            << (8 * k);
  if (i < size) h = hash_combine64(h, tail);
  return h;
}

std::uint64_t hash_string(const std::string& s) {
  return hash_bytes(s.data(), s.size());
}

/// The pipeline output for one distinct content (or one failed read),
/// produced in parallel, consumed serially.
struct FileWork {
  Status status = Status::Ok();
  std::string detail;
  std::uint64_t content_hash = 0;
  std::vector<std::string> region_names;
  std::vector<graph::ProgramGraph> region_graphs;
  std::vector<std::uint64_t> region_fingerprints;
};

/// parse → verify → region-extract → graph-build → fingerprint for one
/// file's bytes. Never throws out: every failure lands in work->status.
void pipeline_one(const std::string& contents, const IngestOptions& options,
                  FileWork* work) {
  std::string parse_error;
  auto module = ir::parse_module(contents, &parse_error);
  if (!module) {
    work->status = Status::InvalidArgument("textual IR failed to parse");
    work->detail = parse_error;
    return;
  }
  std::string verify_errors;
  if (!ir::verify(*module, &verify_errors)) {
    work->status = Status::InvalidArgument("module failed verification");
    work->detail = verify_errors;
    return;
  }

  // OpenMP-outlined functions are the regions of interest (the paper's unit
  // of prediction); a module without any — external IR that was not
  // produced by an OpenMP frontend — contributes its whole-module graph.
  std::vector<std::string> regions = graph::find_omp_regions(*module);
  if (regions.empty()) {
    graph::ProgramGraph g = graph::build_graph(*module, options.graph_options);
    g_graphs_built.fetch_add(1, std::memory_order_relaxed);
    if (g.nodes.empty()) {
      work->status = Status::InvalidArgument("module yields an empty graph");
      work->detail = "no instructions in module '" + module->name() + "'";
      return;
    }
    work->region_fingerprints.push_back(graph::fingerprint(g));
    work->region_names.push_back(module->name());
    work->region_graphs.push_back(std::move(g));
    return;
  }
  for (const std::string& region : regions) {
    auto region_module = graph::extract_region(*module, region);
    if (!region_module) {  // unreachable: find_omp_regions listed it
      work->status = Status::Internal("region extraction failed");
      work->detail = "region '" + region + "' vanished from the module";
      return;
    }
    graph::ProgramGraph g =
        graph::build_graph(*region_module, options.graph_options);
    g_graphs_built.fetch_add(1, std::memory_order_relaxed);
    if (g.nodes.empty()) {
      work->status = Status::InvalidArgument("region yields an empty graph");
      work->detail = "region '" + region + "' has no instructions";
      return;
    }
    work->region_fingerprints.push_back(graph::fingerprint(g));
    work->region_names.push_back(region_module->name());
    work->region_graphs.push_back(std::move(g));
  }
}

bool structurally_equal(const graph::ProgramGraph& a,
                        const graph::ProgramGraph& b) {
  if (a.nodes.size() != b.nodes.size() || a.edges.size() != b.edges.size())
    return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i)
    if (a.nodes[i].kind != b.nodes[i].kind ||
        a.nodes[i].feature != b.nodes[i].feature)
      return false;
  for (std::size_t i = 0; i < a.edges.size(); ++i)
    if (a.edges[i].src != b.edges[i].src || a.edges[i].dst != b.edges[i].dst ||
        a.edges[i].kind != b.edges[i].kind ||
        a.edges[i].position != b.edges[i].position)
      return false;
  return true;
}

/// Where one input file's outcome lives: the FileWork of its content's
/// first occurrence (or of its own failed read), plus its content hash.
struct FileRef {
  std::uint32_t work = 0;
  std::uint64_t content_hash = 0;
};

constexpr std::size_t kUnfolded = ~std::size_t{0};

/// Serial fold in file-index order: dedup, record construction,
/// corpus_hash accumulation. A file whose bytes equal an earlier file's
/// replays that first occurrence: the same status, detail, region names and
/// fingerprints; with dedup on, each region is a duplicate of the graph the
/// first occurrence's region resolved to (dedup would match it, and nothing
/// earlier in the candidate list), and with dedup off, a copy of that graph.
/// That is exactly what parsing the same bytes again would produce.
void fold_results(const std::vector<std::string>& names,
                  const std::vector<FileRef>& refs,
                  std::vector<FileWork>& works, const IngestOptions& options,
                  IngestResult* out) {
  // fingerprint -> indices into out->graphs holding that fingerprint
  // (a vector, not a single slot, so fingerprint collisions keep both).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> seen;
  // works[w]'s first entry in out->entries, once its first file is folded.
  std::vector<std::size_t> first_entry(works.size(), kUnfolded);
  std::uint64_t corpus_hash = hash_combine64(0x1D5C00ull, names.size());

  out->files.reserve(names.size());
  for (std::size_t f = 0; f < names.size(); ++f) {
    FileWork& work = works[refs[f].work];
    corpus_hash = hash_combine64(corpus_hash, hash_string(names[f]));
    corpus_hash = hash_combine64(corpus_hash, refs[f].content_hash);

    FileRecord record;
    record.path = names[f];
    record.status = work.status;
    record.detail = work.detail;
    ++out->stats.files_scanned;
    if (!work.status.ok()) {
      ++out->stats.files_failed;
      out->files.push_back(std::move(record));
      continue;
    }
    ++out->stats.files_ok;

    std::size_t& first = first_entry[refs[f].work];
    if (first != kUnfolded) {
      for (std::size_t r = 0; r < work.region_fingerprints.size(); ++r) {
        CorpusEntry entry = out->entries[first + r];
        entry.file_index = static_cast<std::uint32_t>(f);
        ++record.regions;
        ++out->stats.regions_total;
        if (options.dedup) {
          entry.duplicate = true;
          ++record.duplicates;
          ++out->stats.duplicates;
        } else {
          graph::ProgramGraph copy = out->graphs[entry.graph_index];
          entry.graph_index = static_cast<std::uint32_t>(out->graphs.size());
          out->stats.nodes_total += copy.nodes.size();
          out->stats.edges_total += copy.edges.size();
          out->fingerprints.push_back(entry.fingerprint);
          out->graphs.push_back(std::move(copy));
        }
        out->entries.push_back(std::move(entry));
      }
      out->files.push_back(std::move(record));
      continue;
    }
    first = out->entries.size();

    for (std::size_t r = 0; r < work.region_graphs.size(); ++r) {
      CorpusEntry entry;
      entry.name = std::move(work.region_names[r]);
      entry.fingerprint = work.region_fingerprints[r];
      entry.file_index = static_cast<std::uint32_t>(f);
      ++record.regions;
      ++out->stats.regions_total;

      graph::ProgramGraph& g = work.region_graphs[r];
      std::uint32_t winner = 0;
      bool found = false;
      if (options.dedup) {
        for (std::uint32_t candidate : seen[entry.fingerprint]) {
          if (structurally_equal(out->graphs[candidate], g)) {
            winner = candidate;
            found = true;
            break;
          }
        }
      }
      if (found) {
        entry.duplicate = true;
        entry.graph_index = winner;
        ++record.duplicates;
        ++out->stats.duplicates;
      } else {
        entry.graph_index = static_cast<std::uint32_t>(out->graphs.size());
        seen[entry.fingerprint].push_back(entry.graph_index);
        out->stats.nodes_total += g.nodes.size();
        out->stats.edges_total += g.edges.size();
        g.name = entry.name;
        out->fingerprints.push_back(entry.fingerprint);
        out->graphs.push_back(std::move(g));
      }
      out->entries.push_back(std::move(entry));
    }
    out->files.push_back(std::move(record));
  }
  out->stats.graphs_unique = out->graphs.size();
  out->corpus_hash = corpus_hash;
  out->options_hash = options_hash(options);
}

/// The record of a file refused by the size bound before any read.
void refuse_oversize(std::uint64_t size, FileWork* work) {
  work->status = Status::InvalidArgument("file exceeds size bound");
  work->detail = "size " + std::to_string(size) + " > max_file_bytes";
  work->content_hash = hash_combine64(0xB16F11Eull, size);
}

/// Files whose bytes the driver holds at once, beyond the distinct contents.
constexpr std::size_t kWindowFiles = 512;

/// Produces file i's bytes: points *bytes at them — at memory that outlives
/// the ingest, or at *storage after filling it — and returns true; or fills
/// *failed (status, detail, content_hash) and returns false.
using ReadFile = support::FunctionRef<bool(
    std::size_t i, std::string* storage, const std::string** bytes,
    FileWork* failed)>;

/// The one ingest driver behind ingest_buffers and ingest_directory. It
/// works through the files one window at a time:
///   1. read the window in parallel and hash each file's bytes;
///   2. classify serially in index order: a file whose bytes equal (in full,
///      so a hash collision never merges two files) an earlier file's maps
///      to that first occurrence; any other file is a new distinct content;
///   3. run pipeline_one in parallel on the window's new contents only.
/// Only the distinct contents' bytes outlive their window (to compare later
/// files against); fold_results then replays every byte-duplicate.
void ingest_files(const std::vector<std::string>& names, ReadFile read,
                  const IngestOptions& options, IngestResult* out) {
  const std::size_t n = names.size();
  std::vector<FileRef> refs(n);
  // One FileWork per distinct content or failed read, with its bytes
  // (null for a failed read); `kept` owns the bytes the driver read itself.
  std::vector<FileWork> works;
  std::vector<const std::string*> bytes;
  std::deque<std::string> kept;
  // content hash -> works with that hash (several only on a collision)
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash;

  const std::size_t window = std::min(n, kWindowFiles);
  std::vector<std::string> storage(window);
  std::vector<const std::string*> read_bytes(window);
  std::vector<FileWork> slots(window);
  std::vector<std::uint32_t> fresh;
  for (std::size_t begin = 0; begin < n; begin += window) {
    const std::size_t count = std::min(window, n - begin);
    support::ThreadPool::global().parallel_for(
        0, static_cast<std::int64_t>(count), options.num_threads,
        [&](std::int64_t i) {
          slots[i] = FileWork{};
          if (read(begin + i, &storage[i], &read_bytes[i], &slots[i]))
            slots[i].content_hash = hash_string(*read_bytes[i]);
          else
            read_bytes[i] = nullptr;
        });

    fresh.clear();
    for (std::size_t i = 0; i < count; ++i) {
      FileRef& ref = refs[begin + i];
      ref.content_hash = slots[i].content_hash;
      if (!read_bytes[i]) {
        ref.work = static_cast<std::uint32_t>(works.size());
        works.push_back(std::move(slots[i]));
        bytes.push_back(nullptr);
        continue;
      }
      std::vector<std::uint32_t>& same_hash = by_hash[ref.content_hash];
      auto match = std::find_if(
          same_hash.begin(), same_hash.end(),
          [&](std::uint32_t w) { return *bytes[w] == *read_bytes[i]; });
      if (match != same_hash.end()) {
        ref.work = *match;
        continue;
      }
      ref.work = static_cast<std::uint32_t>(works.size());
      same_hash.push_back(ref.work);
      fresh.push_back(ref.work);
      if (read_bytes[i] == &storage[i]) {
        kept.push_back(std::move(storage[i]));
        read_bytes[i] = &kept.back();
      }
      bytes.push_back(read_bytes[i]);
      works.emplace_back();
    }

    support::ThreadPool::global().parallel_for(
        0, static_cast<std::int64_t>(fresh.size()), options.num_threads,
        [&](std::int64_t j) {
          pipeline_one(*bytes[fresh[j]], options, &works[fresh[j]]);
        });
  }

  fold_results(names, refs, works, options, out);
}

}  // namespace

std::uint64_t options_hash(const IngestOptions& options) {
  std::uint64_t h = hash_combine64(0x0971ull, options.dedup ? 1 : 0);
  h = hash_combine64(h, options.graph_options.control_edges ? 1 : 0);
  h = hash_combine64(h, options.graph_options.data_edges ? 1 : 0);
  h = hash_combine64(h, options.graph_options.call_edges ? 1 : 0);
  return h;
}

std::uint64_t graphs_built() {
  return g_graphs_built.load(std::memory_order_relaxed);
}

Status ingest_buffers(const std::vector<std::string>& names,
                      const std::vector<std::string>& contents,
                      const IngestOptions& options, IngestResult* out) {
  if (names.size() != contents.size())
    return Status::InvalidArgument("names/contents size mismatch");
  *out = IngestResult{};
  ingest_files(
      names,
      [&](std::size_t i, std::string*, const std::string** bytes,
          FileWork* failed) {
        if (contents[i].size() > options.max_file_bytes) {
          refuse_oversize(contents[i].size(), failed);
          return false;
        }
        *bytes = &contents[i];
        return true;
      },
      options, out);
  return Status::Ok();
}

namespace {

/// The sorted-relative-path walk ingest and hash_corpus_dir share: readdir
/// order never leaks into results. Paths are keyed lexically by where they
/// sit under `dir`, so a symlinked file is named by its in-corpus path,
/// never by its resolved target.
Status list_corpus(const std::string& dir, std::vector<std::string>* names,
                   std::vector<fs::path>* paths) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec)
    return Status::InvalidArgument("corpus path is not a readable directory");
  const fs::path root(dir);
  std::vector<fs::path> found;
  for (auto it = fs::recursive_directory_iterator(
           root, fs::directory_options::skip_permission_denied, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) return Status::Internal("corpus directory walk failed");
    if (!it->is_regular_file(ec) || ec) {
      ec.clear();
      continue;
    }
    found.push_back(it->path());
  }
  std::vector<std::size_t> order(found.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::string> rel(found.size());
  for (std::size_t i = 0; i < found.size(); ++i)
    rel[i] = found[i].lexically_relative(root).generic_string();
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return rel[a] < rel[b]; });
  names->resize(order.size());
  paths->resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    (*names)[i] = std::move(rel[order[i]]);
    (*paths)[i] = std::move(found[order[i]]);
  }
  return Status::Ok();
}

/// Reads one corpus file's bytes into `contents`, applying the size bound.
/// On any failure `work` carries the record ingest will report, and
/// work.content_hash matches what the fold expects for that failure mode.
bool read_corpus_file(const fs::path& path, std::uint64_t max_file_bytes,
                      std::string* contents, FileWork* work) {
  std::error_code sec;
  const std::uint64_t size = fs::file_size(path, sec);
  if (sec) {
    work->status = Status::Internal("file size unreadable");
    work->detail = "stat failed";
    return false;
  }
  if (size > max_file_bytes) {
    refuse_oversize(size, work);
    return false;
  }
  contents->assign(size, '\0');
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  if (!fp) {
    work->status = Status::Internal("file open failed");
    work->detail = "fopen failed";
    return false;
  }
  const std::size_t got = size ? std::fread(&(*contents)[0], 1, size, fp) : 0;
  std::fclose(fp);
  if (got != size) {
    work->status = Status::Internal("file read failed");
    work->detail = "short read";
    return false;
  }
  return true;
}

}  // namespace

Status ingest_directory(const std::string& dir, const IngestOptions& options,
                        IngestResult* out) {
  *out = IngestResult{};
  std::vector<std::string> names;
  std::vector<fs::path> paths;
  Status status = list_corpus(dir, &names, &paths);
  if (!status.ok()) return status;
  ingest_files(
      names,
      [&](std::size_t i, std::string* storage, const std::string** bytes,
          FileWork* failed) {
        *bytes = storage;
        return read_corpus_file(paths[i], options.max_file_bytes, storage,
                                failed);
      },
      options, out);
  return Status::Ok();
}

Status hash_corpus_dir(const std::string& dir, std::uint64_t max_file_bytes,
                       std::uint64_t* out) {
  std::vector<std::string> names;
  std::vector<fs::path> paths;
  Status status = list_corpus(dir, &names, &paths);
  if (!status.ok()) return status;

  // Bytes only — no parse, no graphs — folded exactly as fold_results does,
  // so the result equals IngestResult::corpus_hash for the same directory.
  std::vector<std::uint64_t> hashes(paths.size());
  support::ThreadPool::global().parallel_for(
      0, static_cast<std::int64_t>(paths.size()), 0, [&](std::int64_t i) {
        std::string contents;
        FileWork failed;
        hashes[i] = read_corpus_file(paths[i], max_file_bytes, &contents,
                                     &failed)
                        ? hash_string(contents)
                        : failed.content_hash;
      });

  std::uint64_t h = hash_combine64(0x1D5C00ull, names.size());
  for (std::size_t f = 0; f < names.size(); ++f) {
    h = hash_combine64(h, hash_string(names[f]));
    h = hash_combine64(h, hashes[f]);
  }
  *out = h;
  return Status::Ok();
}

}  // namespace irgnn::corpus
