// Tests for the corpus ingestion frontend and the .irds dataset cache:
// thread-count invariance, bit-identity against core::build_dataset,
// malformed-file containment, dedup semantics, byte-deterministic cache
// writes, warm loads with zero graph rebuilds, and hostile-input sweeps
// (every-byte truncation + seeded mutation fuzz) over the cache loader.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "corpus/dataset_cache.h"
#include "corpus/ingest.h"
#include "corpus/suite_dump.h"
#include "graph/fingerprint.h"
#include "graph/region_extractor.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "support/rng.h"
#include "workloads/suite.h"

namespace irgnn {
namespace {

namespace fs = std::filesystem;

std::string region_text(std::size_t index) {
  const auto& suite = workloads::benchmark_suite();
  return ir::print_module(
      *workloads::build_region_module(suite[index % suite.size()]));
}

/// A small mixed corpus: three real modules, one duplicate, two malformed.
void small_corpus(std::vector<std::string>* names,
                  std::vector<std::string>* contents) {
  // Sorted by name, like a directory walk would present them.
  names->assign({"a.ir", "b.ir", "bad1.ir", "bad2.ir", "c.ir",
                 "dup_of_a.ir"});
  contents->assign({region_text(0), region_text(1), "module {{{ nonsense",
                    "", region_text(2), region_text(0)});
}

bool same_graph(const graph::ProgramGraph& a, const graph::ProgramGraph& b,
                bool with_text) {
  if (a.nodes.size() != b.nodes.size() || a.edges.size() != b.edges.size())
    return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (a.nodes[i].kind != b.nodes[i].kind ||
        a.nodes[i].feature != b.nodes[i].feature)
      return false;
    if (with_text && a.nodes[i].text != b.nodes[i].text) return false;
  }
  for (std::size_t i = 0; i < a.edges.size(); ++i)
    if (a.edges[i].src != b.edges[i].src || a.edges[i].dst != b.edges[i].dst ||
        a.edges[i].kind != b.edges[i].kind ||
        a.edges[i].position != b.edges[i].position)
      return false;
  return true;
}

std::string temp_dir(const char* tag) {
  fs::path dir = fs::temp_directory_path() / (std::string("irgnn_corpus_") +
                                              tag + "_" +
                                              std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

TEST(IngestTest, DeterministicAtEveryThreadCount) {
  std::vector<std::string> names, contents;
  small_corpus(&names, &contents);

  corpus::IngestResult baseline;
  corpus::IngestOptions options;
  options.num_threads = 1;
  ASSERT_TRUE(
      corpus::ingest_buffers(names, contents, options, &baseline).ok());

  for (int threads : {2, 4, 8}) {
    options.num_threads = threads;
    corpus::IngestResult result;
    ASSERT_TRUE(
        corpus::ingest_buffers(names, contents, options, &result).ok());
    ASSERT_EQ(result.graphs.size(), baseline.graphs.size());
    EXPECT_EQ(result.fingerprints, baseline.fingerprints);
    EXPECT_EQ(result.corpus_hash, baseline.corpus_hash);
    EXPECT_EQ(result.options_hash, baseline.options_hash);
    for (std::size_t i = 0; i < result.graphs.size(); ++i)
      EXPECT_TRUE(
          same_graph(result.graphs[i], baseline.graphs[i], /*with_text=*/true))
          << "graph " << i << " differs at " << threads << " threads";
    ASSERT_EQ(result.entries.size(), baseline.entries.size());
    for (std::size_t i = 0; i < result.entries.size(); ++i) {
      EXPECT_EQ(result.entries[i].name, baseline.entries[i].name);
      EXPECT_EQ(result.entries[i].graph_index, baseline.entries[i].graph_index);
      EXPECT_EQ(result.entries[i].duplicate, baseline.entries[i].duplicate);
    }
    ASSERT_EQ(result.files.size(), baseline.files.size());
    for (std::size_t i = 0; i < result.files.size(); ++i) {
      EXPECT_EQ(result.files[i].status.code(), baseline.files[i].status.code());
      EXPECT_EQ(result.files[i].detail, baseline.files[i].detail);
    }
  }
}

TEST(IngestTest, MalformedFilesAreRecordsNotCrashes) {
  std::vector<std::string> names, contents;
  small_corpus(&names, &contents);

  corpus::IngestResult result;
  ASSERT_TRUE(corpus::ingest_buffers(names, contents, {}, &result).ok());
  EXPECT_EQ(result.stats.files_scanned, 6u);
  EXPECT_EQ(result.stats.files_failed, 2u);
  EXPECT_EQ(result.stats.files_ok, 4u);
  // bad1.ir / bad2.ir carry diagnostics; the run still ingested the rest.
  for (const auto& file : result.files) {
    if (file.path.rfind("bad", 0) == 0) {
      EXPECT_FALSE(file.status.ok()) << file.path;
      EXPECT_FALSE(file.detail.empty()) << file.path;
    } else {
      EXPECT_TRUE(file.status.ok()) << file.path;
    }
  }
  EXPECT_GT(result.graphs.size(), 0u);
}

TEST(IngestTest, DedupFirstOccurrenceWins) {
  std::vector<std::string> names, contents;
  small_corpus(&names, &contents);

  corpus::IngestResult result;
  ASSERT_TRUE(corpus::ingest_buffers(names, contents, {}, &result).ok());
  // dup_of_a.ir's region must resolve to a.ir's graph (file index 0 wins:
  // names sort as given and a.ir precedes dup_of_a.ir).
  bool saw_duplicate = false;
  for (const auto& entry : result.entries)
    if (entry.duplicate) {
      saw_duplicate = true;
      EXPECT_LT(entry.graph_index, result.graphs.size());
      EXPECT_EQ(result.fingerprints[entry.graph_index], entry.fingerprint);
    }
  EXPECT_TRUE(saw_duplicate);
  EXPECT_EQ(result.stats.duplicates, 1u);

  corpus::IngestOptions keep_all;
  keep_all.dedup = false;
  corpus::IngestResult undeduped;
  ASSERT_TRUE(
      corpus::ingest_buffers(names, contents, keep_all, &undeduped).ok());
  EXPECT_EQ(undeduped.graphs.size(),
            result.graphs.size() + result.stats.duplicates);
  EXPECT_NE(undeduped.options_hash, result.options_hash);
  EXPECT_EQ(undeduped.corpus_hash, result.corpus_hash);
}

TEST(IngestTest, DumpedSuiteMatchesBuildDatasetBitForBit) {
  const std::string dir = temp_dir("dump");
  corpus::SuiteDumpOptions dump_options;
  dump_options.num_sequences = 2;
  dump_options.seed = 0xDA7A;
  std::size_t files = 0;
  ASSERT_TRUE(corpus::dump_suite(dir, dump_options, &files).ok());
  const std::size_t S = dump_options.num_sequences;
  ASSERT_EQ(files, workloads::benchmark_suite().size() * S);

  const core::Dataset dataset =
      core::build_dataset({S, dump_options.seed, 0});

  for (int threads : {1, 4}) {
    corpus::IngestOptions options;
    options.num_threads = threads;
    corpus::IngestResult result;
    ASSERT_TRUE(corpus::ingest_directory(dir, options, &result).ok());
    ASSERT_EQ(result.stats.files_failed, 0u);
    // Entry k is file k in sorted order = (region k/S, sequence k%S): the
    // dump names sort by (region, sequence) construction.
    ASSERT_EQ(result.entries.size(), files);
    for (std::size_t k = 0; k < result.entries.size(); ++k) {
      const graph::ProgramGraph& got =
          result.graphs[result.entries[k].graph_index];
      const graph::ProgramGraph& want = dataset.graph(k / S, k % S);
      EXPECT_TRUE(same_graph(got, want, /*with_text=*/true))
          << "entry " << k << " (" << result.entries[k].name << ") vs "
          << want.name;
      EXPECT_EQ(result.entries[k].fingerprint, graph::fingerprint(want));
    }
  }
  fs::remove_all(dir);
}

/// Every field of an IngestResult folded into one value: graphs (name,
/// nodes with text, edges), fingerprints, entries, file records (path,
/// code, message, detail, counts), stats, corpus_hash and options_hash.
std::uint64_t result_digest(const corpus::IngestResult& r) {
  auto mix_string = [](std::uint64_t h, const std::string& s) {
    h = hash_combine64(h, s.size());
    for (char c : s) h = hash_combine64(h, static_cast<unsigned char>(c));
    return h;
  };
  std::uint64_t h = hash_combine64(0xD16E57ull, r.graphs.size());
  for (const graph::ProgramGraph& g : r.graphs) {
    h = mix_string(h, g.name);
    h = hash_combine64(h, g.nodes.size());
    for (const graph::Node& n : g.nodes) {
      h = hash_combine64(h, static_cast<std::uint64_t>(n.kind));
      h = hash_combine64(h, static_cast<std::uint64_t>(n.feature));
      h = mix_string(h, n.text);
    }
    h = hash_combine64(h, g.edges.size());
    for (const graph::Edge& e : g.edges)
      for (std::int64_t v : {std::int64_t{e.src}, std::int64_t{e.dst},
                             static_cast<std::int64_t>(e.kind),
                             std::int64_t{e.position}})
        h = hash_combine64(h, static_cast<std::uint64_t>(v));
  }
  h = hash_combine64(h, r.fingerprints.size());
  for (std::uint64_t fp : r.fingerprints) h = hash_combine64(h, fp);
  h = hash_combine64(h, r.entries.size());
  for (const corpus::CorpusEntry& e : r.entries) {
    h = mix_string(h, e.name);
    for (std::uint64_t v : {e.fingerprint, std::uint64_t{e.file_index},
                            std::uint64_t{e.graph_index},
                            std::uint64_t{e.duplicate}})
      h = hash_combine64(h, v);
  }
  h = hash_combine64(h, r.files.size());
  for (const corpus::FileRecord& f : r.files) {
    h = mix_string(h, f.path);
    h = hash_combine64(h, static_cast<std::uint64_t>(f.status.code()));
    h = mix_string(h, f.status.message());
    h = mix_string(h, f.detail);
    h = hash_combine64(h, f.regions);
    h = hash_combine64(h, f.duplicates);
  }
  const corpus::IngestStats& s = r.stats;
  for (std::uint64_t v : {s.files_scanned, s.files_ok, s.files_failed,
                          s.regions_total, s.graphs_unique, s.duplicates,
                          s.nodes_total, s.edges_total, r.corpus_hash,
                          r.options_hash})
    h = hash_combine64(h, v);
  return h;
}

TEST(IngestTest, IngestMatchesPinnedDigest) {
  // An 8-sequence dump (448 files, 119 distinct contents) plus a nested
  // subdirectory holding a malformed file, an empty file and byte copies
  // of both.
  const std::string dir = temp_dir("digest");
  corpus::SuiteDumpOptions dump_options;
  dump_options.num_sequences = 8;
  dump_options.seed = 0xDA7A;
  std::size_t files = 0;
  ASSERT_TRUE(corpus::dump_suite(dir, dump_options, &files).ok());
  ASSERT_EQ(files, 448u);
  const fs::path nested = fs::path(dir) / "zz_nested" / "deeper";
  fs::create_directories(nested);
  for (const char* name : {"bad.ir", "copy_of_bad.ir"}) {
    std::ofstream out(nested / name, std::ios::binary);
    out << "module m {\n  func @f( {{{ nonsense\n";
  }
  for (const char* name : {"copy_of_empty.ir", "empty.ir"})
    std::ofstream(nested / name, std::ios::binary);

  // Generated on the ingest that parsed every file separately; any change
  // to the result, however it is computed, must leave these values alone.
  // The 2600-byte bound refuses the larger dumped files before any read.
  struct Case {
    bool dedup;
    std::uint64_t max_file_bytes;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {true, 64ull << 20, 0x74f4176074c6eed8ull},
      {false, 64ull << 20, 0x3aace43e961710b6ull},
      {true, 2600, 0x742d8e0bdf5a63c0ull},
      {false, 2600, 0x23885737319bfe15ull},
  };
  for (const Case& c : cases)
    for (int threads : {1, 4}) {
      corpus::IngestOptions options;
      options.num_threads = threads;
      options.dedup = c.dedup;
      options.max_file_bytes = c.max_file_bytes;
      corpus::IngestResult result;
      ASSERT_TRUE(corpus::ingest_directory(dir, options, &result).ok());
      EXPECT_EQ(result.stats.files_scanned, 452u);
      EXPECT_EQ(result_digest(result), c.digest)
          << "dedup " << c.dedup << ", max_file_bytes " << c.max_file_bytes
          << ", " << threads << " threads";
    }
  fs::remove_all(dir);
}

TEST(IngestTest, ByteIdenticalFilesParseOnce) {
  // Three distinct modules, each with byte copies; a near-duplicate of a.ir
  // that differs by one trailing byte; a malformed file and its byte copy.
  const std::string a = region_text(0), b = region_text(1),
                    c = region_text(2);
  const std::string bad = "module {{{ nonsense";
  const std::vector<std::string> names = {
      "a.ir",      "a_copy1.ir", "a_copy2.ir", "a_near.ir", "b.ir",
      "bad.ir",    "bad_copy.ir", "c.ir",      "c_copy.ir", "z_b_copy.ir"};
  const std::vector<std::string> contents = {a, a, a, a + "\n", b,
                                             bad, bad, c, c, b};

  std::size_t distinct_regions = 0;
  for (const std::string* text : {&a, &b, &c, &contents[3]}) {
    auto module = ir::parse_module(*text);
    ASSERT_NE(module, nullptr);
    distinct_regions += graph::find_omp_regions(*module).size();
  }

  for (int threads : {1, 4}) {
    corpus::IngestOptions options;
    options.num_threads = threads;
    const std::uint64_t built_before = corpus::graphs_built();
    corpus::IngestResult result;
    ASSERT_TRUE(
        corpus::ingest_buffers(names, contents, options, &result).ok());
    EXPECT_EQ(corpus::graphs_built() - built_before, distinct_regions)
        << threads << " threads";

    // The near-duplicate was parsed on its own: a record of its own, every
    // region present, and (being structurally a.ir) resolved by graph dedup.
    const corpus::FileRecord& near_record = result.files[3];
    EXPECT_TRUE(near_record.status.ok());
    EXPECT_EQ(near_record.regions, result.files[0].regions);
    EXPECT_EQ(near_record.duplicates, near_record.regions);

    // The malformed copy carries the original's code and diagnostic.
    EXPECT_FALSE(result.files[5].status.ok());
    EXPECT_EQ(result.files[6].status.code(), result.files[5].status.code());
    EXPECT_STREQ(result.files[6].status.message(),
                 result.files[5].status.message());
    EXPECT_EQ(result.files[6].detail, result.files[5].detail);
    EXPECT_FALSE(result.files[6].detail.empty());

    // ingest_directory over the same bytes agrees record for record.
    const std::string dir = temp_dir("parse_once");
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::ofstream out(dir + "/" + names[i], std::ios::binary);
      out << contents[i];
    }
    corpus::IngestResult from_disk;
    ASSERT_TRUE(corpus::ingest_directory(dir, options, &from_disk).ok());
    fs::remove_all(dir);
    EXPECT_EQ(result_digest(from_disk), result_digest(result));
    ASSERT_EQ(from_disk.files.size(), result.files.size());
    for (std::size_t i = 0; i < result.files.size(); ++i) {
      EXPECT_EQ(from_disk.files[i].path, result.files[i].path);
      EXPECT_EQ(from_disk.files[i].status.code(),
                result.files[i].status.code());
      EXPECT_EQ(from_disk.files[i].detail, result.files[i].detail);
      EXPECT_EQ(from_disk.files[i].regions, result.files[i].regions);
      EXPECT_EQ(from_disk.files[i].duplicates, result.files[i].duplicates);
    }
  }
}

TEST(IngestTest, SymlinkedFilesAreKeyedByTheirCorpusPath) {
  // corpus/link.ir points at ../other/x.ir, outside the corpus root.
  const fs::path base = temp_dir("symlink");
  const fs::path root = base / "corpus";
  fs::create_directories(root / "sub");
  fs::create_directories(base / "other");
  const std::vector<std::string> names = {"a.ir", "link.ir", "sub/b.ir"};
  const std::vector<std::string> contents = {region_text(0), region_text(1),
                                             region_text(2)};
  for (const auto& [name, text] :
       {std::pair{root / "a.ir", contents[0]},
        std::pair{base / "other" / "x.ir", contents[1]},
        std::pair{root / "sub" / "b.ir", contents[2]}}) {
    std::ofstream out(name, std::ios::binary);
    out << text;
  }
  fs::create_symlink(fs::path("..") / "other" / "x.ir", root / "link.ir");

  corpus::IngestResult expected;
  ASSERT_TRUE(corpus::ingest_buffers(names, contents, {}, &expected).ok());

  const fs::path cwd = fs::current_path();
  fs::current_path(base);
  for (const std::string& spelling :
       {std::string("corpus"), std::string("corpus/"),
        std::string("./corpus"), root.string()}) {
    corpus::IngestResult result;
    ASSERT_TRUE(corpus::ingest_directory(spelling, {}, &result).ok());
    ASSERT_EQ(result.files.size(), names.size()) << spelling;
    for (std::size_t i = 0; i < names.size(); ++i)
      EXPECT_EQ(result.files[i].path, names[i]) << spelling;
    EXPECT_EQ(result_digest(result), result_digest(expected)) << spelling;
    std::uint64_t dir_hash = 0;
    ASSERT_TRUE(
        corpus::hash_corpus_dir(spelling, 64ull << 20, &dir_hash).ok());
    EXPECT_EQ(dir_hash, expected.corpus_hash) << spelling;
  }
  fs::current_path(cwd);
  fs::remove_all(base);
}

TEST(DatasetCacheTest, RepeatedWritesAreByteIdentical) {
  std::vector<std::string> names, contents;
  small_corpus(&names, &contents);
  corpus::IngestResult result;
  ASSERT_TRUE(corpus::ingest_buffers(names, contents, {}, &result).ok());

  const std::string dir = temp_dir("bytes");
  const std::string path_a = dir + "/a.irds";
  const std::string path_b = dir + "/b.irds";
  ASSERT_TRUE(corpus::write_dataset_cache(path_a, result.graphs,
                                          result.fingerprints,
                                          result.corpus_hash,
                                          result.options_hash)
                  .ok());
  ASSERT_TRUE(corpus::write_dataset_cache(path_b, result.graphs,
                                          result.fingerprints,
                                          result.corpus_hash,
                                          result.options_hash)
                  .ok());
  EXPECT_EQ(read_file(path_a), read_file(path_b));
  EXPECT_GT(read_file(path_a).size(), corpus::kCacheHeaderBytes);
  fs::remove_all(dir);
}

TEST(DatasetCacheTest, WarmLoadRebuildsNothingAndRoundTrips) {
  std::vector<std::string> names, contents;
  small_corpus(&names, &contents);
  corpus::IngestResult result;
  ASSERT_TRUE(corpus::ingest_buffers(names, contents, {}, &result).ok());

  const std::string dir = temp_dir("warm");
  const std::string path = dir + "/d.irds";
  ASSERT_TRUE(corpus::write_dataset_cache(path, result.graphs,
                                          result.fingerprints,
                                          result.corpus_hash,
                                          result.options_hash)
                  .ok());

  const std::uint64_t built_before = corpus::graphs_built();
  corpus::DatasetCacheReader reader;
  ASSERT_TRUE(reader.open(path).ok());
  EXPECT_TRUE(reader.verify_payload_hash().ok());
  EXPECT_EQ(reader.num_graphs(), result.graphs.size());
  EXPECT_EQ(reader.corpus_hash(), result.corpus_hash);
  EXPECT_EQ(reader.options_hash(), result.options_hash);

  graph::ProgramGraph scratch;
  for (std::uint64_t i = 0; i < reader.num_graphs(); ++i) {
    reader.materialize(i, &scratch);
    // Node text does not persist (by design); everything structural does.
    EXPECT_TRUE(same_graph(scratch, result.graphs[i], /*with_text=*/false));
    EXPECT_EQ(graph::fingerprint(scratch), result.fingerprints[i]);
    EXPECT_EQ(reader.fingerprint(i), result.fingerprints[i]);
    EXPECT_EQ(scratch.name, result.graphs[i].name);
    for (const auto& node : scratch.nodes) EXPECT_TRUE(node.text.empty());
  }
  // The whole load touched zero graph builds — the warm-path contract.
  EXPECT_EQ(corpus::graphs_built(), built_before);

  // core::load_corpus_dataset wraps the same path as a flat Dataset.
  core::Dataset flat;
  ASSERT_TRUE(core::load_corpus_dataset(path, &flat).ok());
  EXPECT_EQ(flat.num_regions(), result.graphs.size());
  EXPECT_EQ(flat.num_sequences(), 1u);
  for (std::size_t r = 0; r < flat.num_regions(); ++r)
    EXPECT_TRUE(
        same_graph(flat.graph(r, 0), result.graphs[r], /*with_text=*/false));
  EXPECT_EQ(corpus::graphs_built(), built_before);
  fs::remove_all(dir);
}

TEST(DatasetCacheTest, HashKeysDetectStaleCaches) {
  std::vector<std::string> names, contents;
  small_corpus(&names, &contents);
  corpus::IngestResult result;
  ASSERT_TRUE(corpus::ingest_buffers(names, contents, {}, &result).ok());

  // Same bytes on disk hash to the same corpus key the fold computed.
  const std::string dir = temp_dir("hash");
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::ofstream out(dir + "/" + names[i], std::ios::binary);
    out << contents[i];
  }
  corpus::IngestResult from_disk;
  ASSERT_TRUE(corpus::ingest_directory(dir, {}, &from_disk).ok());
  EXPECT_EQ(from_disk.corpus_hash, result.corpus_hash);
  std::uint64_t dir_hash = 0;
  ASSERT_TRUE(
      corpus::hash_corpus_dir(dir, 64ull << 20, &dir_hash).ok());
  EXPECT_EQ(dir_hash, result.corpus_hash);

  // Touching one byte of one file changes the key.
  { std::ofstream out(dir + "/a.ir", std::ios::binary); out << "x"; }
  ASSERT_TRUE(corpus::hash_corpus_dir(dir, 64ull << 20, &dir_hash).ok());
  EXPECT_NE(dir_hash, result.corpus_hash);
  fs::remove_all(dir);
}

TEST(DatasetCacheTest, TruncationAtEveryByteIsContained) {
  std::vector<std::string> names, contents;
  small_corpus(&names, &contents);
  corpus::IngestResult result;
  ASSERT_TRUE(corpus::ingest_buffers(names, contents, {}, &result).ok());

  const std::string dir = temp_dir("trunc");
  const std::string path = dir + "/t.irds";
  ASSERT_TRUE(corpus::write_dataset_cache(path, result.graphs,
                                          result.fingerprints,
                                          result.corpus_hash,
                                          result.options_hash)
                  .ok());
  const std::vector<std::uint8_t> bytes = read_file(path);
  ASSERT_GT(bytes.size(), corpus::kCacheHeaderBytes);

  corpus::DatasetCacheReader reader;
  ASSERT_TRUE(reader.attach(bytes.data(), bytes.size()).ok());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    corpus::DatasetCacheReader truncated;
    EXPECT_FALSE(truncated.attach(bytes.data(), n).ok())
        << "truncation to " << n << " bytes was accepted";
  }
  fs::remove_all(dir);
}

TEST(DatasetCacheTest, MutationFuzzNeverCrashesTheLoader) {
  std::vector<std::string> names, contents;
  small_corpus(&names, &contents);
  corpus::IngestResult result;
  ASSERT_TRUE(corpus::ingest_buffers(names, contents, {}, &result).ok());

  const std::string dir = temp_dir("fuzz");
  const std::string path = dir + "/f.irds";
  ASSERT_TRUE(corpus::write_dataset_cache(path, result.graphs,
                                          result.fingerprints,
                                          result.corpus_hash,
                                          result.options_hash)
                  .ok());
  const std::vector<std::uint8_t> pristine = read_file(path);
  fs::remove_all(dir);

  std::uint64_t state = 0xF022;
  graph::ProgramGraph scratch;
  for (int round = 0; round < 4000; ++round) {
    std::vector<std::uint8_t> bytes = pristine;
    const int flips = 1 + static_cast<int>(splitmix64(state) % 8);
    for (int f = 0; f < flips; ++f)
      bytes[splitmix64(state) % bytes.size()] =
          static_cast<std::uint8_t>(splitmix64(state));
    corpus::DatasetCacheReader reader;
    if (reader.attach(bytes.data(), bytes.size()).ok()) {
      // Structurally valid mutants (e.g. name-blob or hash-field flips)
      // must still be safe to walk end to end.
      for (std::uint64_t i = 0; i < reader.num_graphs(); ++i) {
        reader.materialize(i, &scratch);
        (void)reader.graph_name(i);
      }
      (void)reader.verify_payload_hash();
    }
  }
}

TEST(DatasetCacheTest, LimitsBoundFeaturesBeforeMaterialization) {
  std::vector<std::string> names, contents;
  small_corpus(&names, &contents);
  corpus::IngestResult result;
  ASSERT_TRUE(corpus::ingest_buffers(names, contents, {}, &result).ok());
  const std::string dir = temp_dir("limits");
  const std::string path = dir + "/l.irds";
  ASSERT_TRUE(corpus::write_dataset_cache(path, result.graphs,
                                          result.fingerprints,
                                          result.corpus_hash,
                                          result.options_hash)
                  .ok());

  corpus::CacheLimits tight;
  tight.max_feature = 0;  // no real corpus fits: reject before any walk
  corpus::DatasetCacheReader reader;
  EXPECT_FALSE(reader.open(path, tight).ok());

  corpus::CacheLimits vocab;
  vocab.max_feature =
      static_cast<std::int32_t>(graph::vocabulary_size()) - 1;
  EXPECT_TRUE(reader.open(path, vocab).ok());

  corpus::CacheLimits few_graphs;
  few_graphs.max_graphs = 0;
  EXPECT_FALSE(reader.open(path, few_graphs).ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace irgnn
