// Streaming inference server: the online, multi-client layer over the
// tape-free StaticModel inference engine, behind a typed, exception-free
// front door.
//
// Clients build a serve::Request (graph, deadline, priority), submit it
// through a lock-guarded admission queue and receive lightweight futures
// that resolve to a serve::Response (label, answering model version,
// Source::{Cache,Batch,Shed}, queue/compute micro-timings). Batching is
// greedy: whenever the pump is free it takes whatever is queued (up to
// `max_batch`) and answers it with one StaticModel::predict_into call, so
// a batch is what queued during the previous forward — a lone miss never
// idles waiting for company. Four properties define the design:
//
//   Exception-free query path. submit() returns StatusOr<Future>; every
//   failure a client can observe — queue full (Overloaded), deadline missed
//   (DeadlineExceeded), submit after shutdown (ShuttingDown), a failed
//   forward (Internal) — is a Status or an error Response, never a throw.
//
//   Bounded admission. `max_queue` caps how many admitted queries may wait;
//   a full queue sheds per `shed_policy` (Reject the newcomer, DropOldest
//   victim of the lowest priority class, or Block the submitter while it
//   helps pump). Overload therefore answers Overloaded within the bound
//   instead of stretching every queue latency without limit.
//
//   Determinism. Per-graph predictions never depend on which other graphs
//   share a forward (pinned by the PR 3 inference engine tests), and every
//   result is keyed to its query's admission slot, not to its position in
//   whatever batch happened to form. Every *admitted and answered* response
//   therefore carries bits identical to a serial StaticModel::predict of
//   its graph, for every batch size, queue bound, shed policy and client
//   interleaving — shedding only removes requests, it can never
//   perturb the answers of the requests that stayed.
//
//   No dedicated threads, no deadlocks. The serving loop is a task on the
//   shared support::ThreadPool; in addition, any client waiting on a future
//   (or blocked by ShedPolicy::Block) pumps batches itself when no pumper
//   is active, so the server also works with `background_loop = false` —
//   required when a server is created inside pool-parallel work, where a
//   parked loop task could otherwise starve.
//
// Hot answers skip the forward: results are cached under
// hash_combine64(model version, graph::fingerprint(graph)), and a warm hit
// through predict() performs zero heap allocations. Hot swap: the server
// reads its model through a ModelSlot (its own, or one shared with a
// ModelRegistry name); in-flight batches finish on the snapshot they took,
// and version-keyed caching means a retired model can never answer.
//
// In-flight coalescing backs the cache up. A cache miss consults an
// in-flight map keyed by (version, fingerprint): if an identical query is
// already queued or mid-forward, the newcomer attaches as a waiter on that
// leader's slot instead of enqueuing — N duplicate queries cost one batch
// slot and one forward (a flash crowd on one cold hot region performs
// exactly one), and each waiter resolves with the leader's outcome,
// Source::Coalesced. Waiters survive an abandoned leader (resolution walks
// the waiter chain before recycling the slot), ride hot-swaps (they report
// the version that actually answered), and are drained by shutdown() like
// every admitted query. Coalescing changes WHEN a forward runs, never its
// bits; a waiter's label is bit-identical to a serial predict by the
// reported version. Accounting partitions exactly:
// cache hits + cache misses + coalesced == queries.
//
// Failure containment: a per-server circuit breaker (ServerConfig::
// breaker_trip_threshold) trips after N consecutive failed forwards into a
// cache-only degraded mode — hits and coalesced waiters keep answering
// bit-identically, new misses get Status::Unavailable without spending a
// forward — and a periodic half-open probe restores full service on the
// first success. Fault paths are exercised deterministically through the
// IRGNN_FAILPOINT sites (support/failpoint.h; compiled out by default) and
// tests/chaos_test.cpp.
//
// Multi-model routing lives one layer up in serve::Router (router.h), which
// owns one InferenceServer per published model name and dispatches
// Request::model.
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
#include "serve/model_registry.h"
#include "serve/prediction_cache.h"
#include "serve/request.h"
#include "support/arena.h"
#include "support/inline_function.h"

namespace irgnn::serve {

struct ServerConfig {
  /// Largest micro-batch. There is no batch window: a free pump (the
  /// serving loop or a waiting client) takes up to `max_batch` of whatever
  /// is queued at once, so batches form from the queries that arrived
  /// during the previous forward.
  int max_batch = 64;

  /// Admission bound: at most this many admitted queries may be waiting for
  /// a batch (in-flight batches do not count). 0 means unbounded — the
  /// right setting for cooperative in-process clients that must never be
  /// shed. When the bound is hit, `shed_policy` decides who pays (see
  /// request.h).
  std::size_t max_queue = 0;
  ShedPolicy shed_policy = ShedPolicy::Reject;

  /// Prediction-cache entry budget (0 disables caching) and shard count.
  std::size_t cache_capacity = 4096;
  int cache_shards = 8;

  /// Attach duplicate in-flight queries to one leader slot instead of
  /// enqueuing them (see the header comment). Independent of the cache:
  /// coalescing works with cache_capacity == 0. Off is only useful as a
  /// measurement baseline.
  bool coalesce = true;

  /// Circuit breaker: after this many CONSECUTIVE failed forwards (each
  /// micro-batch is one forward) the server trips to degraded mode — cache
  /// hits and coalesced waiters still answer, but a new miss gets
  /// Status::Unavailable immediately instead of burning a forward on a
  /// model that is failing. 0 (default) disables the breaker. While open,
  /// every `breaker_probe_interval_us` one real miss is admitted as a
  /// half-open probe; if its forward succeeds the breaker closes and full
  /// service resumes, if it fails the probe timer re-arms.
  int breaker_trip_threshold = 0;
  std::int64_t breaker_probe_interval_us = 10000;

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
  std::uint64_t model_swaps = 0; // version changes observed between batches

  // In-flight coalescing. `coalesced` counts every query that attached to
  // a leader — the conservation invariant is
  //   cache.hits + cache.misses + coalesced == queries
  // (a coalesced query counts neither a hit nor a miss). source_coalesced
  // below counts the subset whose leader resolved Ok.
  std::uint64_t coalesced = 0;

  // Admission control.
  std::uint64_t shed = 0;        // admitted, then dropped by DropOldest
  std::uint64_t rejected = 0;    // refused at submit (queue full, Reject)
  std::uint64_t deadline_exceeded = 0;  // expired while queued
  std::uint64_t internal_errors = 0;    // resolved Internal (failed forward)
  std::uint64_t peak_queue = 0;  // high-water admitted-queue depth

  // Request validation. Rejected before admission AND before the query
  // counter, so invalid requests appear in no conservation law (they are
  // neither hits, misses nor coalesced).
  std::uint64_t invalid_arguments = 0;

  // Circuit breaker (see ServerConfig::breaker_trip_threshold).
  std::uint64_t breaker_trips = 0;           // closed/half-open -> open
  std::uint64_t breaker_probes = 0;          // half-open probes admitted
  std::uint64_t breaker_short_circuits = 0;  // misses answered Unavailable
                                             // without a forward (shed-class)
  bool breaker_open = false;                 // state at snapshot time

  // Responses by Source — a partition of every resolved client query
  // (cache = hits, batch = client forwards, coalesced = waiters answered
  // Ok, shed = all four shed-class outcomes above, waiters of shed leaders
  // included).
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
    /// pumps the resolving batch (or sheds the request), and at the latest
    /// during the server's shutdown drain (every admitted query is
    /// answered before the server dies). One-shot: the future becomes
    /// invalid immediately; the callback must not submit back into the
    /// same server from the pump (it runs outside the server lock, so
    /// anything else is fair game).
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

  /// Serves `model` through a private slot (hot-swappable via publish()).
  explicit InferenceServer(ModelPtr model, const ServerConfig& config = {});

  /// Serves whatever `slot` currently publishes — attach a ModelRegistry
  /// slot so registry publishes under that name reach this server. The slot
  /// must already hold a model.
  explicit InferenceServer(std::shared_ptr<ModelSlot> slot,
                           const ServerConfig& config = {});

  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Admits one query. Cache hits resolve immediately; misses join the next
  /// micro-batch. Fails (without admitting) with Overloaded when the
  /// bounded queue is full under Reject — or under DropOldest when every
  /// queued request outranks this one — and with ShuttingDown after
  /// shutdown() began. The graph must stay alive until the future resolves.
  /// Request::model is routing information for serve::Router; a bare server
  /// ignores it.
  StatusOr<Future> submit(const Request& request);

  /// Synchronous query: submit + get, with submit-side failures folded into
  /// the Response (status Overloaded/ShuttingDown, Source::Shed) so callers
  /// have one result type. On a warm cache hit this performs zero heap
  /// allocations (tests/serve_test.cpp counts operator new).
  Response predict(const Request& request);
  Response predict(const graph::ProgramGraph& graph) {
    return predict(Request(graph));
  }

  /// Hot-swaps the served model (publishes to the server's slot). Returns
  /// the new version. In-flight batches finish on their snapshot.
  std::uint64_t publish(ModelPtr model);

  /// Version of the current publication (monotonic per slot).
  std::uint64_t model_version() const { return slot_->snapshot()->version; }

  const ServerConfig& config() const { return config_; }
  ServerStats stats() const;

  /// Stops the serving loop after all admitted queries drain. Called by the
  /// destructor; idempotent. Clients still blocked in get() finish their
  /// own queries (they pump); submits from then on return ShuttingDown —
  /// with one deliberate exception: a query whose fingerprint is already
  /// cached is still answered Ok from the cache (the hit path takes no
  /// lock and the answer is a completed publication's bits, so serving it
  /// during drain is both safe and cheaper than refusing it).
  void shutdown();

 private:
  using Clock = std::chrono::steady_clock;
  enum class SlotState : std::uint8_t { Free, Queued, Done };

  struct QuerySlot {
    const graph::ProgramGraph* graph = nullptr;
    std::uint64_t fp = 0;  // raw structural fingerprint (version-free)
    std::uint64_t gen = 0;
    Clock::time_point admitted{};
    std::int64_t deadline_us = 0;
    Priority priority = Priority::Normal;
    Response response;
    SlotState state = SlotState::Free;
    bool abandoned = false;
    // Coalescing: a queued leader heads an intrusive chain of waiter slots
    // (waiters are never in queue_; they resolve with the leader, before
    // the leader's own slot is recycled — an abandoned leader still
    // answers them). `leading` marks an in_flight_ entry under
    // `inflight_key` that resolution must erase.
    std::int32_t next_waiter = -1;
    bool leading = false;
    std::uint64_t inflight_key = 0;
    // Half-open breaker probe: the one real miss allowed through an open
    // breaker; its resolution closes the breaker (Ok) or re-arms the probe
    // timer (anything else).
    bool probe = false;
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

  /// Resolves `slot` with `response` under the lock: erases its in-flight
  /// entry if it leads one, resolves its coalesced waiters with the derived
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

  /// Attaches the request as a waiter on an in-flight leader for `key`
  /// (version-mixed fingerprint), if one exists. On true, *slot/*gen
  /// identify the waiter and the leader's priority was raised to at least
  /// the request's. Pre: lock held.
  bool try_coalesce_locked(const Request& request, std::uint64_t fp,
                           std::uint64_t key, std::uint32_t* slot,
                           std::uint64_t* gen);

  /// Admission control. Pre: lock held, not a cache hit. Applies stop_ and
  /// the bounded-queue policy (shedding a victim into `fired`, or blocking
  /// while helping pump), then enqueues. On Ok, *slot/*gen identify the
  /// admitted query.
  Status admit_locked(std::unique_lock<std::mutex>& lock,
                      const Request& request, std::uint64_t fp,
                      std::uint32_t* slot, std::uint64_t* gen,
                      FiredList& fired);

  /// The shared miss path of submit()/predict(): coalesce onto an in-
  /// flight leader, or count the miss, admit and register the new leader
  /// in the in-flight map. Runs any shed-victim continuations before
  /// returning.
  StatusOr<Future> admit_or_coalesce(const Request& request, std::uint64_t fp,
                                     std::uint64_t version);

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
  std::shared_ptr<ModelSlot> slot_;
  PredictionCache cache_;
  std::shared_ptr<LoopToken> loop_token_;

  mutable std::mutex mutex_;
  std::condition_variable cv_queue_;  // signaled on admission / shutdown
  std::condition_variable cv_done_;   // signaled when results/space appear
  std::deque<std::uint32_t, support::PoolAllocator<std::uint32_t>> queue_;
  std::vector<QuerySlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  bool pumping_ = false;
  bool stop_ = false;
  bool loop_running_ = false;

  /// Keys are hash_combine64(version, fingerprint) — already well mixed,
  /// so identity hashing suffices (same reasoning as the cache shards).
  struct IdentityHash {
    std::size_t operator()(std::uint64_t k) const noexcept {
      return static_cast<std::size_t>(k);
    }
  };
  /// (version, fingerprint) -> leader slot of every queued or mid-forward
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

  // Circuit breaker (guarded by mutex_). Closed: failures_ counts the
  // consecutive-failed-forward run. Open: misses short-circuit Unavailable;
  // next_probe_ gates the single half-open probe (probe_in_flight_ keeps a
  // second probe from slipping in while one is queued or mid-forward).
  int breaker_failures_ = 0;
  bool breaker_open_ = false;
  bool breaker_probe_in_flight_ = false;
  Clock::time_point breaker_next_probe_{};
  std::uint64_t breaker_trips_ = 0;
  std::uint64_t breaker_probes_ = 0;
  std::uint64_t breaker_short_circuits_ = 0;

  // Stats. queries_ is atomic so the zero-allocation hit path never takes
  // the server mutex; the rest mutate under mutex_. invalid_arguments_ is
  // atomic for the same reason: validation happens before the lock.
  std::atomic<std::uint64_t> invalid_arguments_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::uint64_t forwards_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t max_batch_seen_ = 0;
  std::uint64_t model_swaps_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t source_batch_ = 0;
  std::uint64_t source_coalesced_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  std::uint64_t internal_errors_ = 0;
  std::uint64_t peak_queue_ = 0;
  std::uint64_t last_served_version_ = 0;
};

}  // namespace irgnn::serve
