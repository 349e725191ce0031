#include "serve/prediction_cache.h"

#include <algorithm>

namespace irgnn::serve {

PredictionCache::PredictionCache(std::size_t capacity) {
  capacity_ = capacity;
  if (capacity_ == 0) {
    shard_count_ = 1;
    per_shard_capacity_ = 0;
    shards_ = std::make_unique<Shard[]>(1);
    return;
  }
  shard_count_ = std::min(kShards, capacity_);
  per_shard_capacity_ = (capacity_ + shard_count_ - 1) / shard_count_;
  capacity_ = per_shard_capacity_ * shard_count_;
  shards_ = std::make_unique<Shard[]>(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    shards_[s].slots.resize(per_shard_capacity_);
    // Reserve the full bucket table now so steady-state insert/evict never
    // rehashes; the map's nodes recycle through the arena either way.
    shards_[s].index.reserve(per_shard_capacity_);
  }
}

void PredictionCache::Shard::unlink(int slot) {
  Entry& e = slots[static_cast<std::size_t>(slot)];
  if (e.prev >= 0)
    slots[static_cast<std::size_t>(e.prev)].next = e.next;
  else
    lru_head = e.next;
  if (e.next >= 0)
    slots[static_cast<std::size_t>(e.next)].prev = e.prev;
  else
    lru_tail = e.prev;
  e.prev = e.next = -1;
}

void PredictionCache::Shard::push_front(int slot) {
  Entry& e = slots[static_cast<std::size_t>(slot)];
  e.prev = -1;
  e.next = lru_head;
  if (lru_head >= 0) slots[static_cast<std::size_t>(lru_head)].prev = slot;
  lru_head = slot;
  if (lru_tail < 0) lru_tail = slot;
}

bool PredictionCache::lookup(std::uint64_t key, int* label, bool count_miss) {
  if (per_shard_capacity_ == 0) {
    if (count_miss) note_miss(key);
    return false;
  }
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (count_miss) ++shard.stats.misses;
    return false;
  }
  ++shard.stats.hits;
  const int slot = it->second;
  if (shard.lru_head != slot) {
    shard.unlink(slot);
    shard.push_front(slot);
  }
  *label = shard.slots[static_cast<std::size_t>(slot)].label;
  return true;
}

void PredictionCache::note_miss(std::uint64_t key) {
  // A disabled cache (capacity 0) still has its one shard, so its misses
  // count too and hits + misses + coalesced == queries holds without it.
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.stats.misses;
}

void PredictionCache::insert(std::uint64_t key, int label) {
  if (per_shard_capacity_ == 0) return;
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Racing inserts of the same fingerprint (two clients missing at once)
    // are benign: the model is pure, both wrote the same label. Counted as
    // a refresh — not an insertion — so insertions - evictions == entries
    // stays a checkable invariant.
    ++shard.stats.refreshes;
    const int slot = it->second;
    shard.slots[static_cast<std::size_t>(slot)].label = label;
    if (shard.lru_head != slot) {
      shard.unlink(slot);
      shard.push_front(slot);
    }
    return;
  }
  int slot;
  if (static_cast<std::size_t>(shard.next_free) < shard.slots.size()) {
    slot = shard.next_free++;
  } else {
    // Shard full: evict the least recently used entry and reuse its slot.
    slot = shard.lru_tail;
    shard.index.erase(shard.slots[static_cast<std::size_t>(slot)].key);
    shard.unlink(slot);
    ++shard.stats.evictions;
  }
  Entry& e = shard.slots[static_cast<std::size_t>(slot)];
  e.key = key;
  e.label = label;
  shard.push_front(slot);
  shard.index.emplace(key, slot);
  ++shard.stats.insertions;
}

CacheStats PredictionCache::stats() const {
  CacheStats total;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.insertions += shard.stats.insertions;
    total.refreshes += shard.stats.refreshes;
    total.evictions += shard.stats.evictions;
    total.entries += shard.index.size();
  }
  return total;
}

}  // namespace irgnn::serve
