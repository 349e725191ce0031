// Set-associative caches with LRU replacement and the four per-core Intel
// hardware prefetchers toggled by MSR 0x1A4:
//   * DCU next-line    — on an L1 demand access, fetch line+1 into L1.
//   * DCU IP-correlated— per-PC stride detector prefetching into L1.
//   * L2 adjacent-line — on an L2 fill, also fetch the 128-byte buddy line.
//   * L2 streamer      — per-4KB-page stream detector running ahead of the
//                        access stream into L2 (forward and backward).
//
// The hierarchy is private L1+L2 per core (as on both testbeds); the shared
// L3 and memory system are modeled at the NUMA level by the Simulator.
// Prefetched lines are tagged so the statistics distinguish useful
// prefetches (later demand-hit) from cache-polluting ones, and prefetch
// traffic is accounted — this is what makes prefetchers *hurt* irregular
// workloads, the effect the configuration space exploits.
//
// L1 contents, and therefore the stream of L1 misses and L1 prefetches that
// reaches L2, depend only on the two DCU bits. A CoreCacheModel therefore
// runs one L1 that drives up to four L2 variants (adjacent-line x streamer)
// in lockstep: one pass over a trace yields the statistics of four
// prefetcher masks, each exactly what a single-mask run would report.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/workload_model.h"

namespace irgnn::sim {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;           // demand misses going below L2
  std::uint64_t prefetches_issued = 0;   // lines requested by any prefetcher
  std::uint64_t prefetch_hits = 0;       // demand hits on prefetched lines

  double l1_hit_rate() const {
    return accesses ? static_cast<double>(l1_hits) / accesses : 0.0;
  }
  double l2_local_hit_rate() const {
    std::uint64_t below_l1 = accesses - l1_hits;
    return below_l1 ? static_cast<double>(l2_hits) / below_l1 : 0.0;
  }
  double beyond_l2_per_access() const {
    return accesses ? static_cast<double>(l2_misses) / accesses : 0.0;
  }
  double prefetch_traffic_per_access() const {
    return accesses ? static_cast<double>(prefetches_issued) / accesses : 0.0;
  }
  double prefetch_accuracy() const {
    return prefetches_issued
               ? static_cast<double>(prefetch_hits) / prefetches_issued
               : 0.0;
  }
};

/// LRU set-associative cache of lines. The geometry must give a power-of-two
/// number of sets and at most 255 ways (the constructor throws
/// std::invalid_argument otherwise), so a line's set is a mask of its low
/// bits and a set's fill count fits a byte.
class SetAssociativeCache {
 public:
  SetAssociativeCache(int size_bytes, int associativity, int line_bytes);

  /// Empties the cache: afterwards it behaves exactly as a newly
  /// constructed one. Clears one byte per set, not the ways.
  void reset();

  /// Demand lookup. On a hit, updates LRU, stores in *was_prefetched
  /// whether the line still carried the prefetch tag, clears the tag and
  /// returns true.
  bool access(std::uint64_t line, bool* was_prefetched = nullptr);
  /// Inserts an absent line (evicting the set's LRU way), tagged when
  /// `prefetched`, and returns true. A resident line is left untouched —
  /// not re-tagged, LRU not refreshed — and the call returns false.
  bool insert_if_absent(std::uint64_t line, bool prefetched);
  bool contains(std::uint64_t line) const;

  int num_sets() const { return static_cast<int>(set_mask_ + 1); }

 private:
  std::size_t set_of(std::uint64_t line) const {
    return static_cast<std::size_t>(line & set_mask_);
  }

  std::uint64_t set_mask_;
  std::size_t associativity_;
  // num_sets * associativity ways, set-major. Ways fill in order and are
  // never invalidated, so the occupied ways of set s are the prefix of
  // fill_[s] ways; the ways past it hold stale values that are never read.
  std::vector<std::uint8_t> fill_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> lru_;
  std::vector<std::uint8_t> prefetched_;
  std::uint64_t tick_ = 0;
};

/// One core's private cache hierarchy plus prefetchers: one L1 and one L2
/// per prefetcher variant. Feed it a trace; read the stats.
class CoreCacheModel {
 public:
  /// One or more variants that agree on both DCU bits (they share the L1);
  /// each gets its own L2 with its own adjacent-line and streamer bits.
  /// Throws std::invalid_argument otherwise. The single-configuration form
  /// is the one-variant case.
  CoreCacheModel(const MachineDesc& machine,
                 const std::vector<PrefetcherConfig>& variants);
  CoreCacheModel(const MachineDesc& machine, const PrefetcherConfig& prefetch)
      : CoreCacheModel(machine, std::vector<PrefetcherConfig>{prefetch}) {}

  /// Empties every cache, table and counter and takes a new set of
  /// variants, as many as the model was built with (the constructor's
  /// rules; std::invalid_argument otherwise, leaving the model unchanged).
  /// Afterwards the model reports exactly what a newly constructed one with
  /// these variants would, without reallocating the caches.
  void reset(const std::vector<PrefetcherConfig>& variants);

  void access(const MemoryAccess& access);
  /// Statistics of variant `v`: exactly what a one-variant model with that
  /// configuration reports over the same accesses.
  CacheStats stats(std::size_t v = 0) const;

 private:
  // The L2 of one variant, with its streamer monitors and its share of the
  // statistics (L2 hits/misses, L2 prefetches issued and hit).
  struct L2Variant {
    L2Variant(const MachineDesc& machine, const PrefetcherConfig& prefetch);

    /// Empty cache, monitors and statistics, under new L2 prefetcher bits.
    void reset(const PrefetcherConfig& prefetch);

    void prefetch(std::uint64_t line);
    void demand(std::uint64_t line, int page_shift);
    void streamer_observe(std::uint64_t line, int page_shift);

    bool adjacent;
    bool streamer;
    SetAssociativeCache cache;
    CacheStats stats;

    struct StreamEntry {
      std::uint64_t page = 0;
      std::uint64_t last_line = 0;
      int direction = 0;  // +1 forward, -1 backward
      int confidence = 0;
    };
    // Per-4KB-page monitors, one per page seen since the last recycle; a
    // new page arriving when more than kMaxStreams are live recycles them
    // all. Few enough to search linearly.
    std::vector<StreamEntry> streams;
    static constexpr int kStreamDistance = 4;  // lines run-ahead
    static constexpr std::size_t kMaxStreams = 32;
  };

  void issue_l1_prefetch(std::uint64_t line);

  int line_shift_;  // log2(line bytes)
  int page_shift_;  // log2(lines per 4KB page)
  bool dcu_next_line_;
  bool dcu_ip_;
  SetAssociativeCache l1_;
  std::vector<L2Variant> l2_;
  CacheStats l1_stats_;  // accesses, L1 hits, L1 prefetches issued and hit

  // DCU IP-correlated stride table, indexed by access site (pcs are small
  // site ids; the table grows to the largest one seen).
  struct StrideEntry {
    std::uint64_t last_address = 0;
    std::int64_t stride = 0;
    int confidence = 0;
  };
  std::vector<StrideEntry> stride_table_;
};

}  // namespace irgnn::sim
