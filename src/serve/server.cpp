#include "serve/server.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <new>

#include "gnn/model.h"
#include "graph/fingerprint.h"
#include "support/failpoint.h"
#include "support/thread_pool.h"

namespace irgnn::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

InferenceServer::InferenceServer(ModelPtr model, const ServerConfig& config)
    : config_(config), model_(std::move(model)),
      cache_(config.cache_capacity) {
  assert(model_ && "InferenceServer requires a model");
  config_.max_batch = std::max(1, config_.max_batch);
  // A worker-less pool would run the loop inline and never return; fall
  // back to client-driven pumping there.
  if (config_.background_loop &&
      support::ThreadPool::global().num_workers() > 0) {
    loop_running_ = true;
    loop_token_ = std::make_shared<LoopToken>();
    support::ThreadPool::global().submit([this, token = loop_token_] {
      {
        std::lock_guard<std::mutex> token_lock(token->mutex);
        if (token->cancelled) return;  // server already shut down
        token->started = true;
      }
      background_loop();
    });
  } else {
    config_.background_loop = false;
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::shutdown() {
  if (loop_token_) {
    // Settle the race with the loop task's startup: if the pool has not
    // scheduled it yet (all workers busy or parked), cancel it — it will
    // eventually run, see the token, and return without touching this
    // (possibly destroyed) server.
    std::lock_guard<std::mutex> token_lock(loop_token_->mutex);
    if (!loop_token_->started) {
      loop_token_->cancelled = true;
      std::lock_guard<std::mutex> lock(mutex_);
      loop_running_ = false;
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (!stop_) {
    stop_ = true;
    cv_queue_.notify_all();
    cv_done_.notify_all();
  }
  // Drain: every admitted query is answered even when nobody waits on it —
  // a then() continuation must fire exactly once, and the background loop
  // exits on stop_ without pumping. Clients blocked in get() help; if a
  // pump is mid-flight we wait for it and re-check.
  while (!queue_.empty() || pumping_) {
    if (!pumping_)
      pump_one(lock);
    else
      cv_done_.wait(lock);
  }
  // The drain resolved every leader, and resolution erases in-flight
  // entries — waiters never outlive their leader.
  assert(in_flight_.empty() && "shutdown drain left an in-flight leader");
  // Wait for a started loop task to unpark and exit so it can never touch
  // a destroyed server.
  while (loop_running_) cv_done_.wait(lock);
}

// --- Future -----------------------------------------------------------------

InferenceServer::Future& InferenceServer::Future::operator=(
    Future&& other) noexcept {
  if (this != &other) {
    abandon();
    server_ = other.server_;
    slot_ = other.slot_;
    gen_ = other.gen_;
    ready_ = other.ready_;
    response_ = other.response_;
    // Fully disarm the source. Leaving slot_/gen_ populated used to be
    // benign (server_ == nullptr gated every use) but is a use-after-free
    // trap now that coalescing shares slots across resolution paths: a
    // half-cleared handle that ever re-acquired a server pointer would
    // address another query's slot.
    other.server_ = nullptr;
    other.slot_ = 0;
    other.gen_ = 0;
    other.ready_ = false;
    other.response_ = Response{};
  }
  return *this;
}

Response InferenceServer::Future::get() {
  if (ready_) {
    ready_ = false;
    return response_;
  }
  assert(server_ && "get() on an invalid future");
  InferenceServer* server = server_;
  const std::uint32_t slot = slot_;
  const std::uint64_t gen = gen_;
  server_ = nullptr;
  slot_ = 0;
  gen_ = 0;
  return server->wait(slot, gen);
}

void InferenceServer::Future::then(ResponseCallback callback) {
  if (ready_) {
    ready_ = false;
    callback(response_);
    return;
  }
  assert(server_ && "then() on an invalid future");
  InferenceServer* server = server_;
  const std::uint32_t slot = slot_;
  const std::uint64_t gen = gen_;
  server_ = nullptr;
  slot_ = 0;
  gen_ = 0;
  server->attach_callback(slot, gen, std::move(callback));
}

void InferenceServer::Future::abandon() {
  if (!server_) return;
  {
    std::lock_guard<std::mutex> lock(server_->mutex_);
    QuerySlot& slot = server_->slots_[slot_];
    if (slot.gen == gen_) {
      if (slot.state == SlotState::Done)
        server_->free_slot_locked(slot_);
      else
        slot.abandoned = true;  // the pump frees it after answering — and
                                // still answers its coalesced waiters
    }
  }
  server_ = nullptr;
  slot_ = 0;
  gen_ = 0;
}

// --- Admission --------------------------------------------------------------

std::uint32_t InferenceServer::alloc_slot_locked() {
  if (!free_slots_.empty()) {
    std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  // Room for every slot on the free list up front, so free_slot_locked
  // never allocates (it undoes a failed admission). Reallocates only when
  // slots_ is about to double.
  free_slots_.reserve(std::max(slots_.capacity(), slots_.size() + 1));
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void InferenceServer::free_slot_locked(std::uint32_t slot) {
  QuerySlot& s = slots_[slot];
  ++s.gen;
  s.state = SlotState::Free;
  s.abandoned = false;
  s.graph = nullptr;
  s.next_waiter = -1;
  s.callback.reset();
  free_slots_.push_back(slot);
}

void InferenceServer::resolve_one_locked(std::uint32_t slot,
                                         const Response& response,
                                         FiredList& fired) {
  QuerySlot& s = slots_[slot];
  // Centralized outcome accounting: the source buckets are a partition of
  // every resolved query.
  switch (response.status.code()) {
    case support::StatusCode::kOk:
      if (response.source == Source::Coalesced)
        ++source_coalesced_;
      else
        ++source_batch_;
      break;
    case support::StatusCode::kDeadlineExceeded:
      ++deadline_exceeded_;
      break;
    default:  // kInternal: a failed forward. Nothing else resolves a slot.
      ++internal_errors_;
      break;
  }
  s.response = response;
  s.state = SlotState::Done;
  if (s.abandoned) {
    free_slot_locked(slot);
  } else if (s.callback) {
    // A continuation consumes the result: detach it (to run outside the
    // lock) and recycle the slot now — nobody will wait on it.
    fired.push_back(FiredCallback{std::move(s.callback), response});
    free_slot_locked(slot);
  }
}

void InferenceServer::resolve_slot_locked(std::uint32_t slot,
                                          const Response& response,
                                          FiredList& fired) {
  std::int32_t waiter;
  {
    QuerySlot& s = slots_[slot];
    // Precise erase: when try_coalesce_locked could not allocate a waiter
    // slot, admit_locked registered a second leader under this fingerprint
    // while this one was still in flight — never remove its entry.
    auto it = in_flight_.find(s.fp);
    if (it != in_flight_.end() && it->second == slot) in_flight_.erase(it);
    waiter = s.next_waiter;
    s.next_waiter = -1;
  }
  // Answer the coalesced waiters FIRST, with the leader's outcome — before
  // the leader slot is recycled, so an abandoned leader still answers them
  // and a failed or expired leader sheds them (counted in the shed-class
  // buckets).
  const auto now = Clock::now();
  while (waiter >= 0) {
    QuerySlot& w = slots_[static_cast<std::size_t>(waiter)];
    const std::int32_t next = w.next_waiter;
    w.next_waiter = -1;
    Response derived = response;
    derived.queue_us = us_between(w.admitted, now);
    derived.source =
        response.status.ok() ? Source::Coalesced : Source::Shed;
    resolve_one_locked(static_cast<std::uint32_t>(waiter), derived, fired);
    waiter = next;
  }
  resolve_one_locked(slot, response, fired);
}

Status InferenceServer::admit_locked(const Request& request, std::uint64_t fp,
                                     std::uint32_t* slot_out,
                                     std::uint64_t* gen_out) {
  if (stop_) return Status::ShuttingDown();
  // Fault injection: simulated queue exhaustion. Counted as a rejection so
  // the answered/shed/rejected conservation holds under injection. (Error
  // injection only — this site runs under the server lock, so latency specs
  // here would serialize the whole server; use serve.forward for delays.)
  IRGNN_FAILPOINT("serve.admit", {
    ++rejected_;
    return Status::Overloaded("injected admission fault");
  });
  if (config_.max_queue > 0 && queue_.size() >= config_.max_queue) {
    ++rejected_;
    return Status::Overloaded();
  }
  // A new slot may grow slots_, and the queue block and the in-flight node
  // come from the BufferPool. No other thread sees the slot before the lock
  // drops, so an allocation failure is undone in full and refused like a
  // full queue: no orphan slot, no stale in-flight entry.
  constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::uint32_t slot = kNoSlot;
  bool queued = false;
  try {
    slot = alloc_slot_locked();
    queue_.push_back(slot);
    queued = true;
    in_flight_[fp] = slot;
  } catch (const std::bad_alloc&) {
    if (queued) queue_.pop_back();
    if (slot != kNoSlot) free_slot_locked(slot);
    ++rejected_;
    return Status::Overloaded("out of memory at admission");
  }
  QuerySlot& s = slots_[slot];
  s.graph = request.graph;
  s.fp = fp;
  s.admitted = Clock::now();
  s.deadline_us = request.deadline_us;
  s.response = Response{};
  s.state = SlotState::Queued;
  s.abandoned = false;
  *slot_out = slot;
  *gen_out = s.gen;
  peak_queue_ = std::max<std::uint64_t>(peak_queue_, queue_.size());
  cv_queue_.notify_all();
  return Status::Ok();
}

bool InferenceServer::try_coalesce_locked(const Request& request,
                                          std::uint64_t fp,
                                          std::uint32_t* slot_out,
                                          std::uint64_t* gen_out) {
  auto it = in_flight_.find(fp);
  if (it == in_flight_.end()) return false;
  const std::uint32_t leader = it->second;
  std::uint32_t waiter;
  try {
    waiter = alloc_slot_locked();  // may grow slots_ — take refs after
  } catch (const std::bad_alloc&) {
    return false;  // admitted as a miss instead, or refused there
  }
  QuerySlot& w = slots_[waiter];
  w.graph = request.graph;
  w.fp = fp;
  w.admitted = Clock::now();
  w.deadline_us = request.deadline_us;  // informational: a waiter rides the
                                        // leader's schedule (see header)
  w.response = Response{};
  w.state = SlotState::Queued;
  w.abandoned = false;
  QuerySlot& l = slots_[leader];
  assert(l.state == SlotState::Queued && l.fp == fp &&
         "in-flight map points at a live leader until resolution erases it");
  w.next_waiter = l.next_waiter;
  l.next_waiter = static_cast<std::int32_t>(waiter);
  ++coalesced_;
  *slot_out = waiter;
  *gen_out = w.gen;
  return true;
}

StatusOr<InferenceServer::Future> InferenceServer::admit_or_coalesce(
    const Request& request, std::uint64_t fp) {
  std::uint32_t slot = 0;
  std::uint64_t gen = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  // Coalescing first — even during the shutdown drain or past a full queue:
  // an in-flight leader is guaranteed to resolve (the drain pumps the queue
  // dry), so attaching is as safe as the cache-hit-during-drain exception
  // and cheaper than refusing.
  if (try_coalesce_locked(request, fp, &slot, &gen))
    return Future(this, slot, gen);
  // A genuine miss (neither cached nor in flight): count it against the
  // cache before admission, so hits + misses + coalesced partitions the
  // queries even when admission then rejects.
  cache_.note_miss(fp);
  Status admitted = admit_locked(request, fp, &slot, &gen);
  if (!admitted.ok()) return admitted;
  return Future(this, slot, gen);
}

StatusOr<InferenceServer::Future> InferenceServer::submit(
    const Request& request) {
  assert(request.graph && "Request without a graph");
  // Validate before counting: an empty graph has no region to predict for,
  // and admitting it would spend a queue slot and a forward lane on a
  // meaningless fingerprint. Rejected ahead of queries_, so invalid
  // requests appear in no conservation law.
  if (request.graph->num_nodes() == 0) {
    invalid_arguments_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("empty graph: nothing to predict for");
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t fp = graph::fingerprint(*request.graph);
  int label = 0;
  if (cache_.lookup(fp, &label, /*count_miss=*/false)) {
    Response response;
    response.label = label;
    response.model_version = kModelVersion;
    response.source = Source::Cache;
    return Future(response);
  }
  return admit_or_coalesce(request, fp);
}

Response InferenceServer::predict(const Request& request) {
  // Inlined hit path (rather than submit().get()) so a warm cache hit
  // provably performs zero heap allocations: fingerprint, lookup and the
  // Response all run off preallocated storage.
  assert(request.graph && "Request without a graph");
  if (request.graph->num_nodes() == 0) {
    invalid_arguments_.fetch_add(1, std::memory_order_relaxed);
    Response response;
    response.status =
        Status::InvalidArgument("empty graph: nothing to predict for");
    response.source = Source::Shed;
    return response;
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t fp = graph::fingerprint(*request.graph);
  int label = 0;
  if (cache_.lookup(fp, &label, /*count_miss=*/false)) {
    Response response;
    response.label = label;
    response.model_version = kModelVersion;
    response.source = Source::Cache;
    return response;
  }
  StatusOr<Future> submitted = admit_or_coalesce(request, fp);
  if (!submitted.ok()) {
    // Submit-side failures fold into the one result type sync callers see.
    Response response;
    response.status = submitted.status();
    response.source = Source::Shed;
    return response;
  }
  return std::move(submitted).value().get();
}

void InferenceServer::attach_callback(std::uint32_t slot, std::uint64_t gen,
                                      ResponseCallback callback) {
  Response ready;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    QuerySlot& s = slots_[slot];
    assert(s.gen == gen && "continuation outlived its slot");
    (void)gen;
    if (s.state == SlotState::Done) {
      ready = s.response;
      free_slot_locked(slot);
      fire = true;
    } else {
      s.callback = std::move(callback);
    }
  }
  if (fire) callback(ready);
}

// --- Serving loop -----------------------------------------------------------

void InferenceServer::pump_one(std::unique_lock<std::mutex>& lock) {
  assert(!pumping_ && !queue_.empty());
  pumping_ = true;
  batch_slots_.clear();
  batch_graphs_.clear();
  batch_fps_.clear();
  pump_fired_.clear();
  const auto pickup = Clock::now();
  while (!queue_.empty() &&
         static_cast<int>(batch_slots_.size()) < config_.max_batch) {
    const std::uint32_t slot = queue_.front();
    queue_.pop_front();
    QuerySlot& s = slots_[slot];
    const std::int64_t waited = us_between(s.admitted, pickup);
    if (s.deadline_us > 0 && waited >= s.deadline_us) {
      // Expired while queued: answer DeadlineExceeded instead of spending a
      // forward on a result nobody can use in time. Does not consume batch
      // capacity. (resolve_one_locked does the counting.)
      Response response;
      response.status = Status::DeadlineExceeded();
      response.source = Source::Shed;
      response.queue_us = waited;
      resolve_slot_locked(slot, response, pump_fired_);
      continue;
    }
    s.response.queue_us = waited;
    batch_slots_.push_back(slot);
    // Copy graph/fingerprint into pump scratch now: outside the lock the
    // slots_ vector may be reallocated by a concurrent admission.
    batch_graphs_.push_back(s.graph);
    batch_fps_.push_back(s.fp);
  }
  if (!batch_slots_.empty()) {
    Status forward_status;
    std::int64_t compute_us = 0;
    lock.unlock();
    const auto t0 = Clock::now();
    // Fault injection, outside the lock: an error spec fails this batch
    // without running the model (exactly what a crashed backend looks like
    // to the slots); a latency spec stalls the forward (batch-delay
    // injection) and can do so with inject_error = false.
    IRGNN_FAILPOINT(
        "serve.forward",
        forward_status = Status::Internal("injected forward fault"));
    if (forward_status.ok()) {
      try {
        model_->predict_into(batch_graphs_, batch_preds_);
        compute_us = us_between(t0, Clock::now());
        // Fault injection: a fired serve.cache_insert drops the batch's
        // inserts (cache unavailability) — answers still flow, later
        // identical queries just miss again. (A flag, not `continue`:
        // break/continue inside IRGNN_FAILPOINT bind to the macro's own
        // do-while.)
        bool drop_inserts = false;
        IRGNN_FAILPOINT("serve.cache_insert", drop_inserts = true);
        if (!drop_inserts) {
          for (std::size_t i = 0; i < batch_slots_.size(); ++i)
            cache_.insert(batch_fps_[i], batch_preds_[i]);
        }
      } catch (...) {
        // The query path is exception-free: a failed forward (realistically
        // allocation pressure) resolves the whole batch Internal instead of
        // unwinding into whichever client happened to be pumping.
        forward_status = Status::Internal("model forward failed");
      }
    }
    lock.lock();
    for (std::size_t i = 0; i < batch_slots_.size(); ++i) {
      Response response = slots_[batch_slots_[i]].response;  // queue_us
      response.model_version = kModelVersion;
      response.compute_us = compute_us;
      response.status = forward_status;
      if (forward_status.ok()) {
        response.label = batch_preds_[i];
        response.source = Source::Batch;
      } else {
        // Not answered: shed-class, so the per-source buckets stay a
        // partition of every resolved response.
        response.source = Source::Shed;
      }
      resolve_slot_locked(batch_slots_[i], response, pump_fired_);
    }
    if (forward_status.ok()) {
      ++batches_;
      forwards_ += batch_slots_.size();
      max_batch_seen_ =
          std::max<std::uint64_t>(max_batch_seen_, batch_slots_.size());
    }
  }
  // Hand the pump role back before running continuations: another pumper
  // may start (and reuse the scratch) as soon as pumping_ drops, so the
  // fired list moves to the stack first, and pump_fired_ takes the spare
  // list's storage. Swaps, not moves: both buffers keep their capacity, so
  // a warm pump allocates nothing.
  FiredList fired;
  fired.swap(pump_fired_);
  pump_fired_.swap(fired_spare_);
  pumping_ = false;
  cv_done_.notify_all();
  if (!fired.empty()) {
    lock.unlock();
    for (FiredCallback& f : fired) f.fn(f.response);
    fired.clear();
    lock.lock();
  }
  // Keep the larger buffer as the spare (a concurrent pump may have
  // returned one meanwhile).
  if (fired.capacity() > fired_spare_.capacity()) fired_spare_.swap(fired);
}

Response InferenceServer::wait(std::uint32_t slot, std::uint64_t gen) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    QuerySlot& s = slots_[slot];
    assert(s.gen == gen && "future outlived its slot");
    (void)gen;
    if (s.state == SlotState::Done) {
      const Response response = s.response;
      free_slot_locked(slot);
      return response;
    }
    if (!pumping_ && !queue_.empty()) {
      // Caller participation: no active pumper, so drive a batch ourselves
      // (batch composition never changes any result). pump_one never
      // throws (a failed forward resolves Internal), so the slot is always
      // collected.
      pump_one(lock);
      continue;
    }
    cv_done_.wait(lock);
  }
}

void InferenceServer::background_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (pumping_)
      cv_done_.wait(lock);  // a waiting client beat us to the pump role
    else if (!queue_.empty())
      pump_one(lock);
    else
      cv_queue_.wait(lock);
  }
  loop_running_ = false;
  cv_done_.notify_all();
}

ServerStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats out;
  out.queries = queries_.load(std::memory_order_relaxed);
  out.forwards = forwards_;
  out.batches = batches_;
  out.max_batch = max_batch_seen_;
  out.coalesced = coalesced_;
  out.rejected = rejected_;
  out.deadline_exceeded = deadline_exceeded_;
  out.internal_errors = internal_errors_;
  out.peak_queue = peak_queue_;
  out.invalid_arguments = invalid_arguments_.load(std::memory_order_relaxed);
  out.cache = cache_.stats();
  // Responses by source — a partition of every resolved query. Cache hits
  // already count per-shard; source_batch/source_coalesced come from the
  // centralized resolution accounting; every shed-class outcome (rejected
  // at submit, expired, failed forward — waiters of shed leaders included)
  // reported Source::Shed.
  out.source_cache = out.cache.hits;
  out.source_batch = source_batch_;
  out.source_coalesced = source_coalesced_;
  // (invalid_arguments is NOT part of the partition: those were never
  // counted as queries).
  out.source_shed = rejected_ + deadline_exceeded_ + internal_errors_;
  return out;
}

}  // namespace irgnn::serve
