#include "serve/server.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "gnn/model.h"
#include "graph/fingerprint.h"
#include "support/failpoint.h"
#include "support/rng.h"
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
    : InferenceServer(
          [&] {
            auto slot = std::make_shared<ModelSlot>();
            slot->publish(std::move(model));
            return slot;
          }(),
          config) {}

InferenceServer::InferenceServer(std::shared_ptr<ModelSlot> slot,
                                 const ServerConfig& config)
    : config_(config),
      slot_(std::move(slot)),
      cache_(config.cache_capacity, config.cache_shards) {
  assert(slot_ && slot_->snapshot()->model &&
         "InferenceServer requires a published model");
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
  s.leading = false;
  s.inflight_key = 0;
  s.probe = false;
  s.callback.reset();
  free_slots_.push_back(slot);
}

void InferenceServer::resolve_one_locked(std::uint32_t slot,
                                         const Response& response,
                                         FiredList& fired) {
  QuerySlot& s = slots_[slot];
  // Half-open probe bookkeeping rides resolution so EVERY probe outcome is
  // covered — answered by the forward (Ok closes the breaker, Internal
  // re-arms the probe timer) but also shed or expired before reaching one
  // (re-arm; the probe franchise must never leak with probe_in_flight
  // stuck true).
  if (s.probe) {
    s.probe = false;
    breaker_probe_in_flight_ = false;
    if (response.status.ok()) {
      breaker_open_ = false;
      breaker_failures_ = 0;
    } else {
      breaker_next_probe_ =
          Clock::now() +
          std::chrono::microseconds(config_.breaker_probe_interval_us);
    }
  }
  // Centralized outcome accounting: the source buckets are a partition of
  // every resolved query.
  switch (response.status.code()) {
    case support::StatusCode::kOk:
      if (response.source == Source::Coalesced)
        ++source_coalesced_;
      else
        ++source_batch_;
      break;
    case support::StatusCode::kOverloaded:
      ++shed_;
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
    if (s.leading) {
      // Precise erase: a Block-policy admission that slept through this
      // leader's lifetime may have registered a newer leader under the
      // same key — never remove someone else's entry.
      auto it = in_flight_.find(s.inflight_key);
      if (it != in_flight_.end() && it->second == slot) in_flight_.erase(it);
      s.leading = false;
    }
    waiter = s.next_waiter;
    s.next_waiter = -1;
  }
  // Answer the coalesced waiters FIRST, with the leader's outcome — before
  // the leader slot is recycled, so an abandoned leader still answers them
  // and a shed leader sheds them (counted in the shed-class buckets).
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

Status InferenceServer::admit_locked(std::unique_lock<std::mutex>& lock,
                                     const Request& request, std::uint64_t fp,
                                     std::uint32_t* slot_out,
                                     std::uint64_t* gen_out,
                                     FiredList& fired) {
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
    switch (config_.shed_policy) {
      case ShedPolicy::Reject:
        ++rejected_;
        return Status::Overloaded();
      case ShedPolicy::DropOldest: {
        // Victim: the oldest queued request of the lowest priority class.
        // The queue is FIFO, so the first scan hit of the minimum priority
        // is the oldest of that class.
        std::size_t victim_index = 0;
        Priority victim_priority = slots_[queue_[0]].priority;
        for (std::size_t i = 1; i < queue_.size(); ++i) {
          const Priority p = slots_[queue_[i]].priority;
          if (p < victim_priority) {
            victim_priority = p;
            victim_index = i;
          }
        }
        if (victim_priority > request.priority) {
          // Everything queued outranks the newcomer: shedding never
          // promotes load over requests the queue already chose to carry.
          ++rejected_;
          return Status::Overloaded(
              "admission queue full of higher-priority requests");
        }
        const std::uint32_t victim = queue_[victim_index];
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(victim_index));
        Response dropped;
        dropped.status = Status::Overloaded("shed for a newer request");
        dropped.source = Source::Shed;
        dropped.queue_us = us_between(slots_[victim].admitted, Clock::now());
        resolve_slot_locked(victim, dropped, fired);
        cv_done_.notify_all();
        break;  // room made; fall through to enqueue
      }
      case ShedPolicy::Block: {
        // Wait for space, pumping batches ourselves when nobody else is —
        // the same caller-participates rule as wait(), so a client-driven
        // server (background_loop=false) cannot deadlock on its own bound.
        while (!stop_ && queue_.size() >= config_.max_queue) {
          if (!pumping_ && !queue_.empty())
            pump_one(lock);
          else
            cv_done_.wait(lock);
        }
        if (stop_) return Status::ShuttingDown();
        break;
      }
    }
  }
  const std::uint32_t slot = alloc_slot_locked();
  QuerySlot& s = slots_[slot];
  s.graph = request.graph;
  s.fp = fp;
  s.admitted = Clock::now();
  s.deadline_us = request.deadline_us;
  s.priority = request.priority;
  s.response = Response{};
  s.state = SlotState::Queued;
  s.abandoned = false;
  *slot_out = slot;
  *gen_out = s.gen;
  queue_.push_back(slot);
  peak_queue_ = std::max<std::uint64_t>(peak_queue_, queue_.size());
  cv_queue_.notify_all();
  return Status::Ok();
}

bool InferenceServer::try_coalesce_locked(const Request& request,
                                          std::uint64_t fp, std::uint64_t key,
                                          std::uint32_t* slot_out,
                                          std::uint64_t* gen_out) {
  auto it = in_flight_.find(key);
  if (it == in_flight_.end()) return false;
  const std::uint32_t leader = it->second;
  const std::uint32_t waiter = alloc_slot_locked();  // may grow slots_ —
                                                     // take refs after
  QuerySlot& w = slots_[waiter];
  w.graph = request.graph;
  w.fp = fp;
  w.admitted = Clock::now();
  w.deadline_us = request.deadline_us;  // informational: a waiter rides the
                                        // leader's schedule (see header)
  w.priority = request.priority;
  w.response = Response{};
  w.state = SlotState::Queued;
  w.abandoned = false;
  QuerySlot& l = slots_[leader];
  assert(l.state == SlotState::Queued && l.leading && l.inflight_key == key &&
         "in-flight map points at a live leader until resolution erases it");
  w.next_waiter = l.next_waiter;
  l.next_waiter = static_cast<std::int32_t>(waiter);
  // Priority inheritance: a leader carrying real waiters must not be shed
  // as if it still had only its own (possibly Low) priority.
  if (request.priority > l.priority) l.priority = request.priority;
  ++coalesced_;
  *slot_out = waiter;
  *gen_out = w.gen;
  return true;
}

StatusOr<InferenceServer::Future> InferenceServer::admit_or_coalesce(
    const Request& request, std::uint64_t fp, std::uint64_t version) {
  const std::uint64_t key = hash_combine64(version, fp);
  std::uint32_t slot = 0;
  std::uint64_t gen = 0;
  FiredList fired;
  Status admitted;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Coalescing first — even during the shutdown drain: an in-flight
    // leader is guaranteed to resolve (the drain pumps the queue dry), so
    // attaching is as safe as the cache-hit-during-drain exception and
    // cheaper than refusing.
    if (config_.coalesce &&
        try_coalesce_locked(request, fp, key, &slot, &gen))
      return Future(this, slot, gen);
    // A genuine miss (neither cached nor in flight): count it against the
    // cache before admission, so hits + misses + coalesced partitions the
    // queries even when admission then rejects — short-circuited misses
    // included.
    cache_.note_miss(key);
    // Degraded mode: an open breaker answers the miss Unavailable right
    // here, without a queue slot or a forward. Exceptions: shutdown still
    // wins (admit_locked answers ShuttingDown below), and once per probe
    // interval one miss is admitted as the half-open probe. Hits and
    // coalesced waiters never reach this point — degraded mode only refuses
    // work that would need the failing model.
    bool as_probe = false;
    if (config_.breaker_trip_threshold > 0 && breaker_open_ && !stop_) {
      if (!breaker_probe_in_flight_ && Clock::now() >= breaker_next_probe_) {
        as_probe = true;
        // Claim the probe franchise before admit_locked, which may drop the
        // lock (ShedPolicy::Block): a second miss sneaking in meanwhile
        // must short-circuit, not launch a second probe.
        breaker_probe_in_flight_ = true;
      } else {
        ++breaker_short_circuits_;
        admitted = Status::Unavailable();
      }
    }
    if (admitted.ok()) {
      admitted = admit_locked(lock, request, fp, &slot, &gen, fired);
      if (as_probe) {
        if (admitted.ok()) {
          slots_[slot].probe = true;
          ++breaker_probes_;
        } else {
          breaker_probe_in_flight_ = false;  // return the franchise
        }
      }
    }
    if (admitted.ok() && config_.coalesce) {
      QuerySlot& s = slots_[slot];
      s.leading = true;
      s.inflight_key = key;
      in_flight_[key] = slot;
    }
  }
  // A shed victim's continuation runs on the thread that shed it, outside
  // the lock.
  for (FiredCallback& f : fired) f.fn(f.response);
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
  const std::shared_ptr<const PublishedModel> published = slot_->snapshot();
  int label = 0;
  if (cache_.lookup(hash_combine64(published->version, fp), &label,
                    /*count_miss=*/false)) {
    Response response;
    response.label = label;
    response.model_version = published->version;
    response.source = Source::Cache;
    return Future(response);
  }
  return admit_or_coalesce(request, fp, published->version);
}

Response InferenceServer::predict(const Request& request) {
  // Inlined hit path (rather than submit().get()) so a warm cache hit
  // provably performs zero heap allocations: fingerprint, snapshot, lookup
  // and the Response all run off preallocated storage.
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
  const std::shared_ptr<const PublishedModel> published = slot_->snapshot();
  int label = 0;
  if (cache_.lookup(hash_combine64(published->version, fp), &label,
                    /*count_miss=*/false)) {
    Response response;
    response.label = label;
    response.model_version = published->version;
    response.source = Source::Cache;
    return response;
  }
  StatusOr<Future> submitted =
      admit_or_coalesce(request, fp, published->version);
  if (!submitted.ok()) {
    // Submit-side failures fold into the one result type sync callers see.
    Response response;
    response.status = submitted.status();
    response.source = Source::Shed;
    return response;
  }
  return std::move(submitted).value().get();
}

std::uint64_t InferenceServer::publish(ModelPtr model) {
  return slot_->publish(std::move(model));
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
  // One consistent (model, version) snapshot answers the whole batch; a
  // concurrent publish only affects later batches. The snapshot's
  // shared_ptr keeps the model alive even if it is retired mid-forward.
  const std::shared_ptr<const PublishedModel> published = slot_->snapshot();
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
        published->model->predict_into(batch_graphs_, batch_preds_);
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
            cache_.insert(hash_combine64(published->version, batch_fps_[i]),
                          batch_preds_[i]);
        }
      } catch (...) {
        // The query path is exception-free: a failed forward (realistically
        // allocation pressure) resolves the whole batch Internal instead of
        // unwinding into whichever client happened to be pumping.
        forward_status = Status::Internal("model forward failed");
      }
    }
    lock.lock();
    // Breaker accounting per forward attempt, before the batch resolves
    // (resolution handles the probe slot: Ok closes the breaker, failure
    // re-arms the probe timer).
    if (config_.breaker_trip_threshold > 0) {
      if (forward_status.ok()) {
        breaker_failures_ = 0;
        breaker_open_ = false;  // any success restores full service
      } else {
        ++breaker_failures_;
        if (!breaker_open_ &&
            breaker_failures_ >= config_.breaker_trip_threshold) {
          breaker_open_ = true;
          ++breaker_trips_;
          breaker_next_probe_ =
              Clock::now() +
              std::chrono::microseconds(config_.breaker_probe_interval_us);
        }
      }
    }
    for (std::size_t i = 0; i < batch_slots_.size(); ++i) {
      Response response = slots_[batch_slots_[i]].response;  // queue_us
      response.model_version = published->version;
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
      if (published->version != last_served_version_) {
        if (last_served_version_ != 0) ++model_swaps_;
        last_served_version_ = published->version;
      }
    }
  }
  // Hand the pump role back before running continuations: another pumper
  // may start (and reuse the scratch) as soon as pumping_ drops, so the
  // fired list moves to the stack first.
  FiredList fired = std::move(pump_fired_);
  pump_fired_.clear();
  pumping_ = false;
  cv_done_.notify_all();
  if (!fired.empty()) {
    lock.unlock();
    for (FiredCallback& f : fired) f.fn(f.response);
    lock.lock();
  }
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
  out.model_swaps = model_swaps_;
  out.coalesced = coalesced_;
  out.shed = shed_;
  out.rejected = rejected_;
  out.deadline_exceeded = deadline_exceeded_;
  out.internal_errors = internal_errors_;
  out.peak_queue = peak_queue_;
  out.invalid_arguments = invalid_arguments_.load(std::memory_order_relaxed);
  out.breaker_trips = breaker_trips_;
  out.breaker_probes = breaker_probes_;
  out.breaker_short_circuits = breaker_short_circuits_;
  out.breaker_open = breaker_open_;
  out.cache = cache_.stats();
  // Responses by source — a partition of every resolved query. Cache hits
  // already count per-shard; source_batch/source_coalesced come from the
  // centralized resolution accounting; every shed-class outcome (dropped,
  // rejected at submit, expired, failed forward — waiters of shed leaders
  // included) reported Source::Shed.
  out.source_cache = out.cache.hits;
  out.source_batch = source_batch_;
  out.source_coalesced = source_coalesced_;
  // Short-circuited misses are shed-class: refused without a forward, like
  // rejections — part of the source partition (invalid_arguments is NOT:
  // those were never counted as queries).
  out.source_shed = shed_ + rejected_ + deadline_exceeded_ +
                    internal_errors_ + breaker_short_circuits_;
  return out;
}

}  // namespace irgnn::serve
