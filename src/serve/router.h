// Multi-model serving front door: one Router owns one InferenceServer per
// published model name and dispatches typed Requests by Request::model.
//
// The deployment shape this serves is the paper's fig. 8 cross-architecture
// story: one trained predictor per target machine ("SandyBridge",
// "Skylake", ...) published into per-architecture registry slots, and one
// front door that picks the right model for each query instead of one
// hard-wired server per call site. Publishing an existing name hot-swaps
// that model's server in place (readers never block; in-flight batches
// finish on their snapshot); retire() stops routing a name and drains its
// server.
//
// Admission control is enforced per model: RouterConfig::{max_queue,
// shed_policy} configure every server the router creates, so overload on
// one architecture's queue sheds (or rejects, or blocks) without touching
// the others, and a burst returns Overloaded within the bound instead of
// stretching every client's latency. Requests naming no model route to the
// router's only model, or fail ModelNotFound when several are published
// (ambiguous) or the name is unknown — routing failures are Status values,
// never exceptions, like everything on the query path.
//
// Determinism: the router adds name lookup only. Every admitted and
// answered Response carries bits identical to a serial
// StaticModel::predict by the named model, for every shed policy, queue
// bound, model mix and client interleaving (tests/router_test.cpp pins
// this).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serve/server.h"

namespace irgnn::serve {

struct RouterConfig {
  /// Per-model admission bound and overload policy (see request.h);
  /// max_queue 0 means unbounded. These two are the router's admission
  /// contract and the ONLY place to set it: the matching fields inside
  /// `server` below are ignored (overwritten with these) for every server
  /// the router creates.
  std::size_t max_queue = 256;
  ShedPolicy shed_policy = ShedPolicy::Reject;

  /// Template for each per-model InferenceServer (batch size, cache,
  /// loop mode...). Note each background loop parks one shared-ThreadPool
  /// task; routers with many models on small pools should consider
  /// background_loop = false (clients then pump, as everywhere else).
  ServerConfig server;
};

/// Client-side retry schedule for Router::predict(request, policy).
///
/// Containment rules, in order of importance:
///
///   Only failures that retrying can fix are retried: Internal (the forward
///   failed — transient by nature) and Unavailable (the breaker is open —
///   the next attempt may land on a probe-restored server). Overloaded is
///   NEVER retried: a shed is the server saying "less load, please", and a
///   retry storm converts exactly the signal meant to prevent overload into
///   more of it. ModelNotFound / ShuttingDown / InvalidArgument are
///   deterministic; retrying cannot change them.
///
///   Retries are budgeted across the router: at most
///   max(budget_floor, budget_ratio * first attempts) extra attempts,
///   counted over all policy'd predicts. When every request fails, retries
///   amplify sustained traffic by at most 1+ratio — not by max_attempts;
///   the floor only keeps low-traffic clients from being starved of
///   retries by their own small denominator.
///
///   Backoff doubles per attempt from `base_backoff_us` (clamped at
///   `max_backoff_us`) with deterministic jitter in [backoff/2, backoff],
///   derived from (jitter_seed, graph fingerprint, attempt) — reproducible
///   runs, but concurrent clients retrying the same outage still spread out
///   instead of stampeding in lockstep.
struct RetryPolicy {
  int max_attempts = 3;  // total tries, first included; <= 1 disables
  std::int64_t base_backoff_us = 200;
  std::int64_t max_backoff_us = 5000;
  double budget_ratio = 0.2;
  std::uint64_t budget_floor = 10;
  std::uint64_t jitter_seed = 0;
};

struct RouterModelStats {
  std::string model;
  std::uint64_t version = 0;
  ServerStats stats;
};

struct RouterStats {
  /// Routing outcomes.
  std::uint64_t routed = 0;           // requests that reached a server
  std::uint64_t model_not_found = 0;  // unknown / ambiguous model names

  /// Totals folded over every server, live and retired, in name order —
  /// same meanings as the ServerStats fields.
  std::uint64_t queries = 0;
  std::uint64_t forwards = 0;
  std::uint64_t batches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t internal_errors = 0;
  std::uint64_t invalid_arguments = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_short_circuits = 0;
  std::uint64_t source_cache = 0;
  std::uint64_t source_batch = 0;
  std::uint64_t source_coalesced = 0;
  std::uint64_t source_shed = 0;

  /// Client-side retries (predict with a RetryPolicy only; router-level,
  /// not folded from servers). retry_requests is the budget denominator.
  std::uint64_t retry_requests = 0;
  std::uint64_t retries = 0;
  std::uint64_t retry_successes = 0;
  std::uint64_t retry_budget_exhausted = 0;

  /// Live per-model breakdown, in name order.
  std::vector<RouterModelStats> models;
};

class Router {
 public:
  explicit Router(const RouterConfig& config = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Publishes `model` under `name`: the first publish creates the name's
  /// server (attached to the registry slot), later publishes hot-swap it.
  /// Returns the publication version (monotonic per name).
  std::uint64_t publish(const std::string& name, ModelPtr model);

  /// Stops routing `name` and drains its server (admitted queries are
  /// still answered). Returns false if the name is not being served.
  /// Outstanding futures on the name must be resolved first — a Future is
  /// a handle into its server, and retire destroys that server.
  bool retire(const std::string& name);

  /// Routes by request.model and submits. Fails with ModelNotFound for an
  /// unknown name (or an empty name when several models are published),
  /// plus everything InferenceServer::submit can return.
  StatusOr<InferenceServer::Future> submit(const Request& request);

  /// Synchronous routed query; routing and admission failures fold into
  /// the Response (Source::Shed) like InferenceServer::predict.
  Response predict(const Request& request);
  Response predict(const graph::ProgramGraph& graph) {
    return predict(Request(graph));
  }

  /// Synchronous routed query with client-side retries (see RetryPolicy).
  /// Returns the first Ok response, or the last attempt's failure. The
  /// plain predict() overload stays retry-free — the zero-alloc warm hit
  /// path pays nothing for this feature.
  Response predict(const Request& request, const RetryPolicy& policy);

  /// Names currently being served, sorted.
  std::vector<std::string> models() const;

  /// Current publication version under `name` (0 when absent).
  std::uint64_t version(const std::string& name) const {
    return registry_.version(name);
  }

  /// The registry the router publishes through; exposed so callers can
  /// attach additional servers or inspect slots.
  ModelRegistry& registry() { return registry_; }

  const RouterConfig& config() const { return config_; }
  RouterStats stats() const;

  /// Retires every model and stops routing; idempotent, called by the
  /// destructor. Later submits fail ShuttingDown.
  void shutdown();

 private:
  using ServerMap =
      std::map<std::string, std::shared_ptr<InferenceServer>, std::less<>>;

  /// Resolves request.model to a live server (nullptr + error otherwise).
  /// Lock-free: reads an immutable snapshot of the name->server map (the
  /// same copy-on-publish discipline ModelSlot uses for models), so routed
  /// queries — warm cache hits especially — never serialize on the router
  /// mutex. The returned shared_ptr keeps the server alive across a
  /// concurrent retire.
  std::shared_ptr<InferenceServer> route(std::string_view model,
                                         Status* status);

  static void fold(const ServerStats& in, RouterStats& out);

  /// Shuts `server` down and folds its final traffic into retired_.
  void drain_and_fold(InferenceServer& server);

  RouterConfig config_;
  ModelRegistry registry_;
  /// Serializes writers (publish/retire/shutdown) and guards retired_.
  mutable std::mutex mutex_;
  /// Immutable snapshot, swapped whole under mutex_ via std::atomic_store;
  /// readers go through std::atomic_load. Never null.
  std::shared_ptr<const ServerMap> servers_ =
      std::make_shared<const ServerMap>();
  /// Traffic of retired servers, folded in at retire() so totals survive.
  ServerStats retired_;
  std::atomic<std::uint64_t> routed_{0};
  std::atomic<std::uint64_t> model_not_found_{0};
  /// Retry budget across every policy'd predict: retries_ may not exceed
  /// budget_ratio * retry_requests_ (approximately under concurrency — the
  /// check-and-claim is two atomics, not a transaction).
  std::atomic<std::uint64_t> retry_requests_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> retry_successes_{0};
  std::atomic<std::uint64_t> retry_budget_exhausted_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace irgnn::serve
