// Buffer arena for the training/inference hot path.
//
// Every tape node, data/grad buffer, per-op auxiliary vector and matmul pack
// scratch in the tensor layer allocates through BufferPool, a process-wide
// free list bucketed by power-of-two size class. Buffers return to their
// bucket on destruction instead of going back to malloc, so a train step
// that repeats the same op sequence (the steady state of minibatch SGD)
// performs zero heap allocations once the pool is warm. The pool keeps
// counters (malloc_calls / pool_hits / bytes) that the micro-benchmarks and
// the arena tests read to verify exactly that.
//
// Three adapters plug the pool into standard containers and smart pointers:
//
//   PoolAllocator<T>  - std::allocator drop-in; PoolVector<T> is the vector
//                       alias the tensor layer uses for float/int buffers
//                       (UninitPoolVector<T> for outputs written whole,
//                       which resize without a zero fill).
//   make_pooled<T>()  - allocate_shared through the pool, so shared_ptr
//                       control blocks recycle too.
//
// Thread safety: one mutex guards the free lists. The hot path touches the
// pool a few hundred times per shard step, far from contention; correctness
// (and the determinism contract) never depends on the pool, which only
// recycles storage and never changes what is computed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace irgnn::support {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t malloc_calls = 0;  // requests that had to hit operator new
    std::uint64_t malloc_bytes = 0;  // bytes obtained from operator new
    std::uint64_t pool_hits = 0;     // requests served from a free list
    std::uint64_t pool_hit_bytes = 0;
    /// Bytes currently checked out of the pool (allocated, not yet
    /// returned; oversize pass-through requests included) and the highest
    /// that watermark has ever been: the engine's true working-set
    /// footprint.
    std::uint64_t outstanding_bytes = 0;
    std::uint64_t high_water_bytes = 0;
  };

  /// Process-wide pool. Intentionally leaked (never destroyed) so buffers
  /// released from static-storage objects during shutdown always have a live
  /// pool to return to, regardless of static initialization order.
  static BufferPool& global();

  /// Returns a block of at least `bytes` bytes (rounded up to the bucket
  /// size), from the bucket free list when possible.
  void* allocate(std::size_t bytes);

  /// Returns the block of `bytes` (same value passed to allocate) to its
  /// bucket free list. Never calls free()/operator delete for pooled sizes.
  void deallocate(void* ptr, std::size_t bytes);

  Stats stats() const;

 private:
  // Buckets are powers of two from 2^6 (64 B) to 2^30 (1 GiB); larger
  // requests bypass the pool entirely and always malloc.
  static constexpr int kMinBucketBits = 6;
  static constexpr int kMaxBucketBits = 30;
  static constexpr int kNumBuckets = kMaxBucketBits - kMinBucketBits + 1;

  static int bucket_of(std::size_t bytes);
  static std::size_t bucket_bytes(int bucket) {
    return static_cast<std::size_t>(1) << (bucket + kMinBucketBits);
  }

  /// Bumps the outstanding-bytes watermark for a request of `bytes` (the
  /// bucket-rounded size for pooled requests). Caller holds mutex_.
  void note_outstanding(std::size_t bytes) {
    stats_.outstanding_bytes += bytes;
    if (stats_.outstanding_bytes > stats_.high_water_bytes)
      stats_.high_water_bytes = stats_.outstanding_bytes;
  }

  mutable std::mutex mutex_;
  std::vector<void*> free_[kNumBuckets];
  Stats stats_;
};

/// Standard allocator over BufferPool::global(). All instances compare
/// equal: memory from any of them may be released through any other.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(BufferPool::global().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    BufferPool::global().deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>&) const noexcept {
    return false;
  }
};

/// A vector whose storage recycles through the arena.
template <typename T>
using PoolVector = std::vector<T, PoolAllocator<T>>;

/// PoolAllocator whose value-less construct default-initializes, so
/// resize(n) on a vector of floats leaves the new elements unwritten
/// (assign(n, 0.0f) still fills). For buffers whose owner writes every
/// element before reading any.
template <typename T>
class UninitPoolAllocator : public PoolAllocator<T> {
 public:
  UninitPoolAllocator() noexcept = default;
  template <typename U>
  UninitPoolAllocator(const UninitPoolAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using UninitPoolVector = std::vector<T, UninitPoolAllocator<T>>;

/// allocate_shared through the pool: object and control block recycle as one
/// bucket-sized block.
template <typename T, typename... Args>
std::shared_ptr<T> make_pooled(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace irgnn::support
