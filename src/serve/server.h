// Streaming inference server: the online, multi-client layer over the
// tape-free StaticModel inference engine, behind a typed, exception-free
// front door.
//
// Clients build a serve::Request (graph, deadline), submit it
// through a lock-guarded admission queue and receive lightweight futures
// that resolve to a serve::Response (label, model version,
// Source::{Cache,Batch,Shed}, queue/compute micro-timings). Batching is
// greedy: whenever the pump is free it takes whatever is queued (up to
// `max_batch`) and answers it with one StaticModel::predict_into call, so
// a batch is what queued during the previous forward — a lone miss never
// idles waiting for company. Four properties define the design:
//
//   Exception-free query path. submit() returns StatusOr<Future>; every
//   failure a client can observe — queue full or out of memory at
//   admission (Overloaded), deadline missed (DeadlineExceeded), submit
//   after shutdown (ShuttingDown), a failed forward (Internal) — is a
//   Status or an error Response, never a throw.
//
//   Bounded admission. `max_queue` caps how many admitted queries may wait;
//   a full queue refuses the newcomer Overloaded (counted in `rejected`) and
//   never touches what it already admitted. Overload therefore answers
//   Overloaded at once instead of stretching every queue latency without
//   limit.
//
//   Determinism. Per-graph predictions never depend on which other graphs
//   share a forward (pinned by the PR 3 inference engine tests), and every
//   result is keyed to its query's admission slot, not to its position in
//   whatever batch happened to form. Every *admitted and answered* response
//   therefore carries bits identical to a serial StaticModel::predict of
//   its graph, for every batch size, queue bound and client interleaving —
//   shedding only removes requests, it can never perturb the answers of
//   the requests that stayed.
//
//   No dedicated threads, no deadlocks. The serving loop is a task on the
//   shared support::ThreadPool; in addition, any client waiting on a future
//   pumps batches itself when no pumper is active, so the server also
//   works with `background_loop = false` — required when a server is
//   created inside pool-parallel work, where a parked loop task could
//   otherwise starve.
//
// Hot answers skip the forward: results are cached under the graph's
// structural fingerprint (graph::fingerprint), and a warm hit through
// predict() performs zero heap allocations. The server holds its one model
// for its whole life, so a cached label is always that model's answer.
//
// In-flight coalescing backs the cache up. A cache miss consults an
// in-flight map keyed by the same fingerprint: if an identical query is
// already queued or mid-forward, the newcomer attaches as a waiter on that
// leader's slot instead of enqueuing — N duplicate queries cost one batch
// slot and one forward (a flash crowd on one cold hot region performs
// exactly one), and each waiter resolves with the leader's outcome,
// Source::Coalesced. Waiters survive an abandoned leader (resolution walks
// the waiter chain before recycling the slot) and are drained by
// shutdown() like every admitted query. Coalescing changes WHEN a forward
// runs, never its bits; a waiter's label is bit-identical to a serial
// predict. Accounting partitions exactly:
// cache hits + cache misses + coalesced == queries.
//
// Failure containment: a failed forward resolves its whole batch Internal
// (and its coalesced waiters with it) and the server serves on; an
// allocation that fails while a query is being admitted is undone in full
// and refused Overloaded, counted in `rejected`. Cache hits never reach the
// model, so a failing model still answers every cached graph. Fault paths
// are exercised deterministically through the IRGNN_FAILPOINT sites
// (support/failpoint.h; compiled out by default) and tests/chaos_test.cpp.
//
// One server answers for one model, as the paper trains one predictor per
// target machine. Request::model is read only by net::NetServer, which
// refuses any name but its own (net/server.h).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/program_graph.h"
#include "serve/prediction_cache.h"
#include "serve/request.h"
#include "support/arena.h"
#include "support/inline_function.h"

namespace irgnn::gnn {
class StaticModel;
}

namespace irgnn::serve {

/// The float gnn::StaticModel (gnn/model.h) a server answers with; only the
/// files that call into a model include its header.
using ModelPtr = std::shared_ptr<const gnn::StaticModel>;

/// Non-owning ModelPtr over a caller-kept model (shared_ptr aliasing): for
/// stack- or member-owned models served in-process, e.g. the trained model
/// examples/quickstart.cpp serves. The caller must keep `model` alive for
/// the server's lifetime.
inline ModelPtr borrow_model(const gnn::StaticModel& model) {
  return ModelPtr(std::shared_ptr<void>(), &model);
}

struct ServerConfig {
  /// Largest micro-batch. There is no batch window: a free pump (the
  /// serving loop or a waiting client) takes up to `max_batch` of whatever
  /// is queued at once, so batches form from the queries that arrived
  /// during the previous forward.
  int max_batch = 64;

  /// Admission bound: at most this many admitted queries may be waiting for
  /// a batch (in-flight batches do not count). 0 means unbounded — the
  /// right setting for cooperative in-process clients that must never be
  /// shed. When the bound is hit, submit refuses the newcomer Overloaded;
  /// a duplicate of a queued query still coalesces onto it.
  std::size_t max_queue = 0;

  /// Prediction-cache entry budget (0 disables caching). Coalescing (see
  /// the header comment) works with or without a cache.
  std::size_t cache_capacity = 4096;

  /// Run the serving loop as a task on the shared ThreadPool. Turn off for
  /// servers created inside pool-parallel sections (clients then drive the
  /// batching themselves while waiting; behaviour is otherwise identical).
  bool background_loop = true;
};

struct ServerStats {
  std::uint64_t queries = 0;     // client submissions
  std::uint64_t forwards = 0;    // slots answered by the model
  std::uint64_t batches = 0;     // micro-batches launched
  std::uint64_t max_batch = 0;   // largest micro-batch observed

  // In-flight coalescing. `coalesced` counts every query that attached to
  // a leader — the conservation invariant is
  //   cache.hits + cache.misses + coalesced == queries
  // (a coalesced query counts neither a hit nor a miss). source_coalesced
  // below counts the subset whose leader resolved Ok.
  std::uint64_t coalesced = 0;

  // Admission control.
  std::uint64_t rejected = 0;    // refused at submit (queue full, or out
                                 // of memory at admission)
  std::uint64_t deadline_exceeded = 0;  // expired while queued
  std::uint64_t internal_errors = 0;    // resolved Internal (failed forward)
  std::uint64_t peak_queue = 0;  // high-water admitted-queue depth

  // Request validation. Rejected before admission AND before the query
  // counter, so invalid requests appear in no conservation law (they are
  // neither hits, misses nor coalesced).
  std::uint64_t invalid_arguments = 0;

  // Responses by Source — a partition of every resolved client query
  // (cache = hits, batch = client forwards, coalesced = waiters answered
  // Ok, shed = the three shed-class outcomes above, waiters of failed or
  // expired leaders included).
  std::uint64_t source_cache = 0;
  std::uint64_t source_batch = 0;
  std::uint64_t source_coalesced = 0;
  std::uint64_t source_shed = 0;

  CacheStats cache;
};

class InferenceServer {
 public:
  /// A then() continuation. Heap-free by construction (support::
  /// InlineFunction): the capture lives in 96 inline bytes — enough for a
  /// handful of references/values — and over-large captures fail to
  /// compile instead of silently putting a malloc on the resolve path.
  using ResponseCallback =
      support::InlineFunction<void(const Response&), 96>;
  /// A pending Response. Lightweight movable handle: a cache hit returns an
  /// already-resolved future without touching the admission queue. Must be
  /// resolved, continued (then) or destroyed before the server.
  class Future {
   public:
    Future() = default;
    Future(Future&& other) noexcept { *this = std::move(other); }
    Future& operator=(Future&& other) noexcept;
    ~Future() { abandon(); }

    bool valid() const { return server_ != nullptr || ready_; }

    /// Blocks until the response is available (helping to drive batches
    /// while waiting) and returns it. One-shot: the future becomes invalid.
    /// Never throws; a failed forward surfaces as an Internal Response.
    Response get();

    /// Async continuation: runs `callback` with the Response exactly once —
    /// inline if it is already available, otherwise on whichever thread
    /// pumps the resolving batch, and at the latest during the server's
    /// shutdown drain (every admitted query is answered before the server
    /// dies). One-shot: the future becomes invalid immediately; the
    /// callback must not submit back into the same server from the pump
    /// (it runs outside the server lock, so anything else is fair game).
    void then(ResponseCallback callback);

   private:
    friend class InferenceServer;
    explicit Future(const Response& response)
        : ready_(true), response_(response) {}
    Future(InferenceServer* server, std::uint32_t slot, std::uint64_t gen)
        : server_(server), slot_(slot), gen_(gen) {}
    void abandon();

    InferenceServer* server_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t gen_ = 0;
    bool ready_ = false;
    Response response_;
  };

  /// Serves `model` (non-null) for the server's whole life; every answer
  /// reports kModelVersion.
  explicit InferenceServer(ModelPtr model, const ServerConfig& config = {});

  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Admits one query. Cache hits resolve immediately; misses join the next
  /// micro-batch. Fails (without admitting) with Overloaded when the
  /// bounded queue is full and with ShuttingDown after shutdown() began.
  /// The graph must stay alive until the future resolves. The server
  /// ignores Request::model: it answers for its one model.
  StatusOr<Future> submit(const Request& request);

  /// Synchronous query: submit + get, with submit-side failures folded into
  /// the Response (status Overloaded/ShuttingDown, Source::Shed) so callers
  /// have one result type. On a warm cache hit this performs zero heap
  /// allocations (tests/serve_test.cpp counts operator new).
  Response predict(const Request& request);
  Response predict(const graph::ProgramGraph& graph) {
    return predict(Request(graph));
  }

  const ServerConfig& config() const { return config_; }
  ServerStats stats() const;

  /// Stops the serving loop after all admitted queries drain. Called by the
  /// destructor; idempotent. Clients still blocked in get() finish their
  /// own queries (they pump); submits from then on return ShuttingDown —
  /// with one deliberate exception: a query whose fingerprint is already
  /// cached is still answered Ok from the cache (the hit path takes no
  /// lock and the answer is the model's own bits, so serving it
  /// during drain is both safe and cheaper than refusing it).
  void shutdown();

 private:
  using Clock = std::chrono::steady_clock;
  enum class SlotState : std::uint8_t { Free, Queued, Done };

  struct QuerySlot {
    const graph::ProgramGraph* graph = nullptr;
    std::uint64_t fp = 0;  // structural fingerprint: cache and in-flight key
    std::uint64_t gen = 0;
    Clock::time_point admitted{};
    std::int64_t deadline_us = 0;
    Response response;
    SlotState state = SlotState::Free;
    bool abandoned = false;
    // Coalescing: a queued leader heads an intrusive chain of waiter slots
    // (waiters are never in queue_; they resolve with the leader, before
    // the leader's own slot is recycled — an abandoned leader still
    // answers them). Every slot admitted to queue_ leads the in_flight_
    // entry under `fp`, which its resolution erases.
    std::int32_t next_waiter = -1;
    ResponseCallback callback;  // then() continuation
  };

  /// A continuation detached from its slot, to run outside the lock.
  struct FiredCallback {
    ResponseCallback fn;
    Response response;
  };
  using FiredList = std::vector<FiredCallback>;

  std::uint32_t alloc_slot_locked();
  void free_slot_locked(std::uint32_t slot);

  /// Resolves the leader `slot` with `response` under the lock: erases its
  /// in-flight entry, resolves its coalesced waiters with the derived
  /// outcome (Source::Coalesced when Ok), then marks the slot Done, counts
  /// the outcome in the source buckets, frees it if abandoned, and detaches
  /// its continuation into `fired` if it has one. The caller must notify
  /// cv_done_ and run `fired` after unlocking.
  void resolve_slot_locked(std::uint32_t slot, const Response& response,
                           FiredList& fired);

  /// resolve_slot_locked for one slot only (no waiter-chain walk): outcome
  /// accounting + Done/free/continuation handling.
  void resolve_one_locked(std::uint32_t slot, const Response& response,
                          FiredList& fired);

  /// Attaches the request as a waiter on an in-flight leader for `fp`, if
  /// one exists. On true, *slot/*gen identify the waiter. Pre: lock held.
  bool try_coalesce_locked(const Request& request, std::uint64_t fp,
                           std::uint32_t* slot, std::uint64_t* gen);

  /// Admission control. Pre: lock held, not a cache hit; never unlocks.
  /// Refuses ShuttingDown after stop_ and Overloaded when the bounded queue
  /// is full, else enqueues the query and registers it as the in-flight
  /// leader for `fp`. An allocation failure on the way is undone in full
  /// and refused Overloaded. On Ok, *slot/*gen identify the admitted query.
  Status admit_locked(const Request& request, std::uint64_t fp,
                      std::uint32_t* slot, std::uint64_t* gen);

  /// The shared miss path of submit()/predict(): coalesce onto an in-
  /// flight leader, or count the miss and admit a new leader.
  StatusOr<Future> admit_or_coalesce(const Request& request,
                                     std::uint64_t fp);

  /// Runs one micro-batch: pops up to max_batch queries in admission order
  /// without waiting for more (expired deadlines resolve as shed instead of
  /// joining), answers them with one predict_into outside the lock,
  /// publishes results to their slots. A failed forward resolves the whole
  /// batch Internal — never throws.
  /// Pre: lock held, queue non-empty, pumping_ == false. Post: lock held.
  void pump_one(std::unique_lock<std::mutex>& lock);

  /// Blocks until `slot` is Done (driving batches when no pumper is
  /// active), returns the response and frees the slot.
  Response wait(std::uint32_t slot, std::uint64_t gen);

  /// Stores or fires a then() continuation for an in-flight slot.
  void attach_callback(std::uint32_t slot, std::uint64_t gen,
                       ResponseCallback callback);

  void background_loop();

  /// Handshake between the constructor's loop-task submission and
  /// shutdown(): whichever runs first under the token's mutex decides. If
  /// shutdown wins before the pool ever scheduled the task, it cancels the
  /// loop outright — the destructor never waits on a task that may not get
  /// a worker (e.g. when other servers' loops occupy them all), and a
  /// cancelled task only touches the token, never the dead server.
  struct LoopToken {
    std::mutex mutex;
    bool cancelled = false;
    bool started = false;
  };

  ServerConfig config_;
  const ModelPtr model_;
  PredictionCache cache_;
  std::shared_ptr<LoopToken> loop_token_;

  mutable std::mutex mutex_;
  std::condition_variable cv_queue_;  // signaled on admission / shutdown
  std::condition_variable cv_done_;   // signaled when results appear or the
                                      // pump role frees
  std::deque<std::uint32_t, support::PoolAllocator<std::uint32_t>> queue_;
  std::vector<QuerySlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  bool pumping_ = false;
  bool stop_ = false;
  bool loop_running_ = false;

  /// Keys are fingerprints — already splitmix-mixed, so identity hashing
  /// suffices (same reasoning as the cache shards).
  struct IdentityHash {
    std::size_t operator()(std::uint64_t k) const noexcept {
      return static_cast<std::size_t>(k);
    }
  };
  /// fingerprint -> leader slot of every queued or mid-forward
  /// query; entries erased at resolution (guarded by mutex_).
  std::unordered_map<
      std::uint64_t, std::uint32_t, IdentityHash, std::equal_to<std::uint64_t>,
      support::PoolAllocator<std::pair<const std::uint64_t, std::uint32_t>>>
      in_flight_;

  // Pump scratch: written only by the active pumper (pumping_ excludes
  // concurrent pumps), reused across batches so warm pumps stay off malloc.
  std::vector<const graph::ProgramGraph*> batch_graphs_;
  std::vector<std::uint32_t> batch_slots_;
  std::vector<std::uint64_t> batch_fps_;
  std::vector<int> batch_preds_;
  FiredList pump_fired_;
  // The other continuation buffer: pump_one swaps pump_fired_ out to run
  // it unlocked, swaps this one in, and returns the run one here.
  FiredList fired_spare_;

  // Stats. queries_ is atomic so the zero-allocation hit path never takes
  // the server mutex; the rest mutate under mutex_. invalid_arguments_ is
  // atomic for the same reason: validation happens before the lock.
  std::atomic<std::uint64_t> invalid_arguments_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::uint64_t forwards_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t max_batch_seen_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t source_batch_ = 0;
  std::uint64_t source_coalesced_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  std::uint64_t internal_errors_ = 0;
  std::uint64_t peak_queue_ = 0;
};

}  // namespace irgnn::serve
