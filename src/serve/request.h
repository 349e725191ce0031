// The serving layer's typed front-door vocabulary.
//
// A Request names everything the front door needs to admit one region
// query: the graph, the target model's name (checked by the TCP front door,
// net::NetServer) and a queue-time deadline. A Response answers with the
// predicted label plus the provenance a production client wants: the
// model version, whether the answer came from the prediction cache, a
// batched forward, or shedding, and where the time went (queue wait vs
// compute).
//
// Both are plain structs built on the stack: constructing a Request and
// reading a Response never allocates, which is what keeps the warm
// cache-hit path at zero heap allocations end to end.
#pragma once

#include <cstdint>
#include <string_view>

#include "graph/program_graph.h"
#include "support/status.h"

namespace irgnn::serve {

using support::Status;
using support::StatusCode;
template <typename T>
using StatusOr = support::StatusOr<T>;

/// Response::model_version of every answer the cache or a forward produced:
/// a server serves one model for its whole life, so it is always 1 (wire
/// v1 carries the field).
inline constexpr std::uint64_t kModelVersion = 1;

/// What produced a Response.
enum class Source : std::uint8_t {
  Cache,      // fingerprint-keyed prediction cache, no forward
  Batch,      // a micro-batched model forward
  Coalesced,  // attached to an identical in-flight query and answered
              // with its leader's forward (no extra model work)
  Shed,       // not answered: rejected, past deadline, or the forward
              // failed (status Internal)
};

inline const char* source_name(Source source) {
  switch (source) {
    case Source::Cache: return "cache";
    case Source::Batch: return "batch";
    case Source::Coalesced: return "coalesced";
    case Source::Shed: return "shed";
  }
  return "unknown";
}

struct Request {
  Request() = default;
  explicit Request(const graph::ProgramGraph& g, std::string_view model_name = {})
      : graph(&g), model(model_name) {}

  /// The region graph to predict for. Must stay alive until the response
  /// (or the future's resolution).
  const graph::ProgramGraph* graph = nullptr;

  /// Name of the target model. Only net::NetServer reads it: empty or its
  /// served name (net::kModelName) is answered, any other name is
  /// ModelNotFound. An InferenceServer answers for its one model and
  /// ignores this field. The view must outlive the submit() call only —
  /// nothing retains it.
  std::string_view model{};

  /// Queue-time budget in microseconds; 0 means no deadline. A request
  /// still queued when its budget expires is answered DeadlineExceeded
  /// (Source::Shed) instead of joining a batch. Cache hits are immediate
  /// and never expire.
  std::int64_t deadline_us = 0;
};

struct Response {
  /// Ok, or why the request was not answered: DeadlineExceeded (expired
  /// while queued) or Internal (a failed forward). Errors that fail the
  /// submit itself (Overloaded for a full queue, ShuttingDown) surface from
  /// submit()'s StatusOr; predict() folds them into a Response.
  Status status;

  /// Predicted label; meaningful only when status.ok().
  int label = -1;

  /// kModelVersion (always 1) when the cache or a forward handled the
  /// request, a failed forward included; 0 when refused or expired before
  /// either.
  std::uint64_t model_version = 0;

  Source source = Source::Batch;

  /// Micro-timings: admission to batch pickup (or to shedding), and the
  /// answering micro-batch's forward wall time. Cache hits report 0/0.
  std::int64_t queue_us = 0;
  std::int64_t compute_us = 0;

  bool ok() const { return status.ok(); }
};

}  // namespace irgnn::serve
