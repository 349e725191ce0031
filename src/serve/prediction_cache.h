// Sharded LRU cache of served predictions, keyed by the 64-bit structural
// graph fingerprint. A server serves one model for its whole life, so the
// fingerprint alone names an answer (see server.h).
//
// Design goals, in order:
//   1. A warm hit performs zero heap allocations: every shard preallocates
//      its entry slots and threads recency through intrusive index links, so
//      lookup is a hash-map find plus two link splices. The hash map itself
//      reserves its full bucket count up front and allocates its nodes
//      through the buffer arena, so steady-state insert/evict recycles too.
//   2. Reads from distinct shards never contend: a mix of the full key
//      picks one of kShards shards, each shard has its own mutex, and the
//      stats fold per-shard counters only when asked.
//
// The cache stores the predicted label only. It is semantically transparent:
// the model is a pure function of graph structure, so a hit returns exactly
// the bits a fresh forward would produce (the serve tests pin this).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "support/arena.h"

namespace irgnn::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;  // fresh keys only (refreshes excluded), so
                                 // insertions - evictions == entries holds
  std::uint64_t refreshes = 0;   // inserts that found the key resident
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  // currently resident
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class PredictionCache {
 public:
  /// Shards of a cache with at least kShards entries; a smaller cache has
  /// one shard per entry.
  static constexpr std::size_t kShards = 8;

  /// `capacity` is the total entry budget across all shards (rounded up to
  /// a multiple of the shard count). capacity == 0 disables the cache:
  /// every lookup misses (and is counted, like any miss) and inserts drop.
  explicit PredictionCache(std::size_t capacity);

  PredictionCache(const PredictionCache&) = delete;
  PredictionCache& operator=(const PredictionCache&) = delete;

  /// True on hit, with the cached label in *label and the entry bumped to
  /// most-recently-used. Never allocates. `count_miss = false` defers the
  /// miss accounting to the caller (see note_miss): the serving layer uses
  /// it so a query that goes on to coalesce onto an in-flight leader is
  /// counted coalesced, not missed, keeping hits + misses + coalesced an
  /// exact partition of its queries.
  bool lookup(std::uint64_t key, int* label, bool count_miss = true);

  /// Records one miss for `key`'s shard — the deferred half of
  /// lookup(count_miss = false).
  void note_miss(std::uint64_t key);

  /// Inserts (or refreshes) key -> label, evicting the least recently used
  /// entry of the shard when it is full.
  void insert(std::uint64_t key, int label);

  std::size_t capacity() const { return capacity_; }
  CacheStats stats() const;

  /// Shard choice for `key` among `shards`. Finalizer-style multiply-shift
  /// mix of the FULL key: every input bit reaches every output bit before
  /// the modulo, so the clamped (non-power-of-two) shard counts of small
  /// caches stay unbiased and low-entropy keys (small counters, keys with a
  /// constant high byte) still reach every shard. Public and static so the
  /// distribution test can pin it directly.
  static std::size_t shard_index(std::uint64_t key,
                                 std::size_t shards) noexcept {
    std::uint64_t h = key;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h % shards);
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    int label = 0;
    int prev = -1;  // toward most-recently-used
    int next = -1;  // toward least-recently-used
  };

  struct Shard {
    mutable std::mutex mutex;
    // fingerprint -> slot index. The fingerprint is already splitmix-mixed,
    // so identity hashing is enough and keeps lookup branch-free.
    struct IdentityHash {
      std::size_t operator()(std::uint64_t k) const noexcept {
        return static_cast<std::size_t>(k);
      }
    };
    std::unordered_map<
        std::uint64_t, int, IdentityHash, std::equal_to<std::uint64_t>,
        support::PoolAllocator<std::pair<const std::uint64_t, int>>>
        index;
    std::vector<Entry> slots;
    int lru_head = -1;  // most recently used
    int lru_tail = -1;  // least recently used
    int next_free = 0;  // slots [next_free, size) never used yet
    CacheStats stats;

    void unlink(int slot);
    void push_front(int slot);
  };

  Shard& shard_of(std::uint64_t key) {
    return shards_[shard_index(key, shard_count_)];
  }

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::size_t shard_count_ = 0;
  // Shards hold a mutex (immovable), so they live in a fixed-size array.
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace irgnn::serve
