#include "sim/cache.h"

#include <algorithm>
#include <stdexcept>

namespace irgnn::sim {

namespace {

/// log2 of a positive power of two; throws std::invalid_argument otherwise.
int exact_log2(long long value, const char* what) {
  if (value <= 0 || (value & (value - 1)) != 0)
    throw std::invalid_argument(what);
  int shift = 0;
  while ((1ll << shift) < value) ++shift;
  return shift;
}

}  // namespace

SetAssociativeCache::SetAssociativeCache(int size_bytes, int associativity,
                                         int line_bytes)
    : associativity_(static_cast<std::size_t>(associativity)) {
  if (associativity > 255)
    throw std::invalid_argument("cache associativity must be at most 255");
  const long long ways_bytes =
      static_cast<long long>(associativity) * line_bytes;
  const long long num_sets = ways_bytes > 0 ? size_bytes / ways_bytes : 0;
  set_mask_ = (1ull << exact_log2(num_sets,
                                  "cache set count must be a power of two")) -
              1;
  const std::size_t ways = static_cast<std::size_t>(num_sets) * associativity_;
  fill_.assign(static_cast<std::size_t>(num_sets), 0);
  tags_.resize(ways);
  lru_.resize(ways);
  prefetched_.resize(ways);
}

void SetAssociativeCache::reset() {
  std::fill(fill_.begin(), fill_.end(), 0);
  tick_ = 0;
}

bool SetAssociativeCache::access(std::uint64_t line, bool* was_prefetched) {
  const std::size_t set = set_of(line);
  const std::size_t base = set * associativity_;
  for (std::size_t w = base; w < base + fill_[set]; ++w) {
    if (tags_[w] == line) {
      lru_[w] = ++tick_;
      if (was_prefetched) *was_prefetched = prefetched_[w] != 0;
      prefetched_[w] = 0;  // demand touch clears the tag
      return true;
    }
  }
  return false;
}

bool SetAssociativeCache::insert_if_absent(std::uint64_t line,
                                           bool prefetched) {
  const std::size_t set = set_of(line);
  const std::size_t base = set * associativity_;
  const std::size_t end = base + fill_[set];
  std::size_t victim = base;
  for (std::size_t w = base; w < end; ++w) {
    if (tags_[w] == line) return false;
    if (lru_[w] < lru_[victim]) victim = w;
  }
  // A set with a free way fills it; a full set evicts its LRU way.
  if (fill_[set] < associativity_) {
    victim = end;
    ++fill_[set];
  }
  tags_[victim] = line;
  lru_[victim] = ++tick_;
  prefetched_[victim] = prefetched ? 1 : 0;
  return true;
}

bool SetAssociativeCache::contains(std::uint64_t line) const {
  const std::size_t set = set_of(line);
  const std::size_t base = set * associativity_;
  for (std::size_t w = base; w < base + fill_[set]; ++w)
    if (tags_[w] == line) return true;
  return false;
}

CoreCacheModel::L2Variant::L2Variant(const MachineDesc& machine,
                                     const PrefetcherConfig& prefetch)
    : adjacent(prefetch.l2_adjacent),
      streamer(prefetch.l2_streamer),
      cache(machine.l2_size_bytes, machine.l2_assoc, machine.line_bytes) {}

void CoreCacheModel::L2Variant::reset(const PrefetcherConfig& prefetch) {
  adjacent = prefetch.l2_adjacent;
  streamer = prefetch.l2_streamer;
  cache.reset();
  stats = CacheStats{};
  streams.clear();
}

void CoreCacheModel::L2Variant::prefetch(std::uint64_t line) {
  if (cache.insert_if_absent(line, /*prefetched=*/true))
    ++stats.prefetches_issued;
}

void CoreCacheModel::L2Variant::streamer_observe(std::uint64_t line,
                                                 int page_shift) {
  const std::uint64_t page = line >> page_shift;
  StreamEntry* found = nullptr;
  for (auto it = streams.rbegin(); it != streams.rend() && !found; ++it)
    if (it->page == page) found = &*it;
  if (!found) {
    if (streams.size() > kMaxStreams) streams.clear();  // crude recycling
    streams.push_back(StreamEntry{page});
    found = &streams.back();
  }
  StreamEntry& entry = *found;
  if (entry.confidence > 0) {
    int direction = line > entry.last_line   ? 1
                    : line < entry.last_line ? -1
                                             : 0;
    if (direction != 0 && direction == entry.direction) {
      if (++entry.confidence >= 2) {
        for (int d = 1; d <= kStreamDistance; ++d)
          prefetch(line + static_cast<std::uint64_t>(direction * d));
      }
    } else if (direction != 0) {
      entry.direction = direction;
      entry.confidence = 1;
    }
  } else {
    entry.confidence = 1;
    entry.direction = 1;
  }
  entry.last_line = line;
}

void CoreCacheModel::L2Variant::demand(std::uint64_t line, int page_shift) {
  if (streamer) streamer_observe(line, page_shift);
  bool was_prefetched = false;
  if (cache.access(line, &was_prefetched)) {
    ++stats.l2_hits;
    if (was_prefetched) ++stats.prefetch_hits;
    return;
  }
  // Demand miss beyond L2: fill, and with the adjacent-line prefetcher
  // fetch the 128-byte buddy (pair line) alongside.
  ++stats.l2_misses;
  cache.insert_if_absent(line, /*prefetched=*/false);
  if (adjacent) prefetch(line ^ 1ull);
}

namespace {

/// Throws std::invalid_argument unless `variants` is non-empty and agrees
/// on both DCU bits.
void check_variants(const std::vector<PrefetcherConfig>& variants) {
  if (variants.empty())
    throw std::invalid_argument("CoreCacheModel needs at least one variant");
  for (const PrefetcherConfig& variant : variants)
    if (variant.dcu_next_line != variants[0].dcu_next_line ||
        variant.dcu_ip != variants[0].dcu_ip)
      throw std::invalid_argument(
          "CoreCacheModel variants must agree on the DCU prefetchers");
}

}  // namespace

CoreCacheModel::CoreCacheModel(const MachineDesc& machine,
                               const std::vector<PrefetcherConfig>& variants)
    : line_shift_(exact_log2(machine.line_bytes,
                             "line size must be a power of two")),
      page_shift_(exact_log2(4096 / machine.line_bytes,
                             "a 4KB page must hold a power of two of lines")),
      dcu_next_line_(!variants.empty() && variants[0].dcu_next_line),
      dcu_ip_(!variants.empty() && variants[0].dcu_ip),
      l1_(machine.l1_size_bytes, machine.l1_assoc, machine.line_bytes) {
  check_variants(variants);
  l2_.reserve(variants.size());
  for (const PrefetcherConfig& variant : variants)
    l2_.emplace_back(machine, variant);
}

void CoreCacheModel::reset(const std::vector<PrefetcherConfig>& variants) {
  check_variants(variants);
  if (variants.size() != l2_.size())
    throw std::invalid_argument(
        "CoreCacheModel::reset needs as many variants as the model has");
  dcu_next_line_ = variants[0].dcu_next_line;
  dcu_ip_ = variants[0].dcu_ip;
  l1_.reset();
  l1_stats_ = CacheStats{};
  stride_table_.clear();
  for (std::size_t v = 0; v < l2_.size(); ++v) l2_[v].reset(variants[v]);
}

CacheStats CoreCacheModel::stats(std::size_t v) const {
  CacheStats out = l2_[v].stats;
  out.accesses = l1_stats_.accesses;
  out.l1_hits = l1_stats_.l1_hits;
  out.prefetches_issued += l1_stats_.prefetches_issued;
  out.prefetch_hits += l1_stats_.prefetch_hits;
  return out;
}

void CoreCacheModel::issue_l1_prefetch(std::uint64_t line) {
  if (!l1_.insert_if_absent(line, /*prefetched=*/true)) return;
  ++l1_stats_.prefetches_issued;
  for (L2Variant& l2 : l2_)
    l2.cache.insert_if_absent(line, /*prefetched=*/true);
}

void CoreCacheModel::access(const MemoryAccess& access) {
  ++l1_stats_.accesses;
  std::uint64_t line = access.address >> line_shift_;

  // DCU IP-correlated prefetcher trains on every access.
  if (dcu_ip_) {
    if (access.pc >= stride_table_.size())
      stride_table_.resize(static_cast<std::size_t>(access.pc) + 1);
    StrideEntry& entry = stride_table_[access.pc];
    std::int64_t stride = static_cast<std::int64_t>(access.address) -
                          static_cast<std::int64_t>(entry.last_address);
    if (entry.last_address != 0 && stride != 0 && stride == entry.stride) {
      if (++entry.confidence >= 2)
        issue_l1_prefetch((access.address + 2 * stride) >> line_shift_);
    } else {
      entry.stride = stride;
      entry.confidence = 0;
    }
    entry.last_address = access.address;
  }

  bool was_prefetched = false;
  if (l1_.access(line, &was_prefetched)) {
    ++l1_stats_.l1_hits;
    if (was_prefetched) ++l1_stats_.prefetch_hits;
    return;
  }

  // DCU next-line prefetcher triggers on L1 demand misses.
  if (dcu_next_line_) issue_l1_prefetch(line + 1);

  // Every variant's L2 sees the same miss; the L1 fill does not depend on
  // whether L2 hit.
  for (L2Variant& l2 : l2_) l2.demand(line, page_shift_);
  l1_.insert_if_absent(line, /*prefetched=*/false);
}

}  // namespace irgnn::sim
