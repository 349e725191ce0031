#include "support/arena.h"

#include <cstdlib>
#include <new>

#include "support/failpoint.h"

namespace irgnn::support {

BufferPool& BufferPool::global() {
  static BufferPool* pool = new BufferPool;  // leaked by design (see header)
  return *pool;
}

int BufferPool::bucket_of(std::size_t bytes) {
  if (bytes > (static_cast<std::size_t>(1) << kMaxBucketBits)) return -1;
  int bucket = 0;
  while (bucket_bytes(bucket) < bytes) ++bucket;
  return bucket;
}

void* BufferPool::allocate(std::size_t bytes) {
  // Fault injection: allocation pressure, the realistic way a forward dies.
  // Thrown here it takes the exact path a real bad_alloc would — the
  // serving layer's pump catches it and resolves the batch Internal; this
  // site proves that containment, it does not invent a new failure mode.
  IRGNN_FAILPOINT("arena.allocate", throw std::bad_alloc());
  const int bucket = bucket_of(bytes);
  if (bucket < 0) {  // oversize: bypass the pool
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.malloc_calls;
    stats_.malloc_bytes += bytes;
    note_outstanding(bytes);
    return ::operator new(bytes);
  }
  const std::size_t rounded = bucket_bytes(bucket);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    note_outstanding(rounded);
    std::vector<void*>& list = free_[bucket];
    if (!list.empty()) {
      void* ptr = list.back();
      list.pop_back();
      ++stats_.pool_hits;
      stats_.pool_hit_bytes += rounded;
      return ptr;
    }
    ++stats_.malloc_calls;
    stats_.malloc_bytes += rounded;
  }
  // The actual allocation happens outside the lock; counters above already
  // recorded it.
  return ::operator new(rounded);
}

void BufferPool::deallocate(void* ptr, std::size_t bytes) {
  if (ptr == nullptr) return;
  const int bucket = bucket_of(bytes);
  if (bucket < 0) {
    ::operator delete(ptr);
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.outstanding_bytes -= bytes;
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.outstanding_bytes -= bucket_bytes(bucket);
  free_[bucket].push_back(ptr);
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace irgnn::support
