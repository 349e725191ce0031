// Versioned binary wire codec for out-of-process serving.
//
// Every message on an irgnn_served connection is one frame:
//
//   offset  size  field
//   0       2     magic   0x4952 ("IR", little-endian u16)
//   2       1     version kWireVersion (currently 1)
//   3       1     type    FrameType
//   4       4     length  payload bytes (little-endian u32, <= kMaxPayloadBytes)
//   8       len   payload
//
// Payloads are packed little-endian with fixed-width fields — no padding, no
// host-order dependence. A graph travels as the exact structure the model
// consumes (node kind/feature, edge src/dst/kind/position); debug-only
// strings (graph name, node text) deliberately do not cross the wire, for
// the same reason graph::fingerprint excludes them: they never reach the
// model, so shipping them would only split identical queries and bloat
// frames. Round-tripping a graph therefore preserves its fingerprint and its
// predictions, not its labels-for-humans.
//
// Request and Response payloads carry a client-chosen 64-bit tag, echoed
// verbatim by the server, so a pipelined client can match out-of-order
// completions (cache hits resolve before older misses) to their queries.
//
// Two contracts define the codec:
//
//   Zero allocation in steady state. encode_*_into appends to a caller-owned
//   FrameBytes (a BufferPool-backed byte vector) and decode_* writes into
//   caller-owned storage (`graph_into` reuses node/edge capacity; decoded
//   model names are string_views into the payload). Once buffers are warm —
//   same frame shapes repeating, the steady state of a serving loop —
//   neither direction touches the heap (tests/net_test.cpp pins this with a
//   counting operator new).
//
//   Malformed input is a Status, never a crash. Truncated payloads, bad
//   magic or version, oversized lengths, counts that disagree with the
//   payload size, out-of-range enums and out-of-vocabulary node features all
//   return Status::InvalidArgument; no decode path throws, reads out of
//   bounds, or trusts a length it has not checked. The seeded mutation fuzz
//   in net_test drives this.
//
// Status codes cross the wire as their StatusCode numeric value, which
// support/status.h pins with static_asserts — codec version 1 can never
// silently reorder error codes.
#pragma once

#include <cstdint>
#include <string_view>

#include "graph/program_graph.h"
#include "serve/request.h"
#include "support/arena.h"
#include "support/status.h"

namespace irgnn::net {

using support::Status;
using support::StatusCode;
template <typename T>
using StatusOr = support::StatusOr<T>;

/// Frame scratch: BufferPool-backed so encode buffers recycle through the
/// arena instead of malloc.
using FrameBytes = support::PoolVector<std::uint8_t>;

inline constexpr std::uint16_t kMagic = 0x4952;  // "IR"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 8;
/// Hard payload bound: anything larger is rejected before buffering, so a
/// malicious or corrupt length field cannot make the server allocate.
inline constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;  // 16 MiB

/// Frame types are wire format v1: append new types, never renumber.
enum class FrameType : std::uint8_t {
  kGraph = 1,         // standalone ProgramGraph (tools, tests)
  kRequest = 2,       // tag + routing/admission fields + inline graph
  kResponse = 3,      // tag + status/label/provenance/timings
  kStatsRequest = 4,  // empty payload: ask the server for a kStatsReply
  kStatsReply = 5,    // server and net-layer counters (WireStats)
};

struct FrameHeader {
  FrameType type = FrameType::kGraph;
  std::uint32_t payload_bytes = 0;
};

// --- Status <-> wire byte --------------------------------------------------

/// The wire byte for a Status: its pinned StatusCode value.
inline std::uint8_t wire_status(const Status& status) {
  return static_cast<std::uint8_t>(status.code());
}

/// Rebuilds a Status (with its canonical message) from a wire byte. Returns
/// InvalidArgument for bytes outside the pinned range — which is itself a
/// decode error, distinguished by *valid.
Status status_from_wire(std::uint8_t wire, bool* valid);

// --- Decoded views ---------------------------------------------------------

/// A decoded kRequest. `model` views into the payload buffer and is valid
/// only while that buffer is; the graph lives in the caller-provided storage
/// passed to decode_request (reused across decodes, so a steady-state
/// connection decodes without allocating).
struct DecodedRequest {
  std::uint64_t tag = 0;
  std::int64_t deadline_us = 0;
  std::string_view model{};
};

/// A decoded kResponse: the echoed tag plus the reconstructed Response.
struct DecodedResponse {
  std::uint64_t tag = 0;
  serve::Response response;
};

/// Counters a kStatsReply carries: the InferenceServer totals a client
/// checks conservation with (hits + misses + coalesced == queries), plus the
/// net layer's own model-name, connection and frame accounting. Field ORDER
/// is wire format v1 — append, never reorder.
struct WireStats {
  // InferenceServer totals (see serve::ServerStats).
  std::uint64_t queries = 0;
  std::uint64_t forwards = 0;
  std::uint64_t batches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t shed = 0;  // always 0: no admitted query is dropped
  std::uint64_t rejected = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t internal_errors = 0;
  std::uint64_t invalid_arguments = 0;
  // The NetServer's model-name check (see NetServerStats).
  std::uint64_t routed = 0;
  std::uint64_t model_not_found = 0;
  // Net-layer accounting (see NetServerStats for semantics).
  std::uint64_t net_accepted = 0;
  std::uint64_t net_closed = 0;
  std::uint64_t net_open = 0;
  std::uint64_t net_frames_in = 0;
  std::uint64_t net_frames_out = 0;
  std::uint64_t net_requests = 0;
  std::uint64_t net_decode_errors = 0;
  std::uint64_t net_protocol_errors = 0;
  std::uint64_t net_backpressure_shed = 0;
  std::uint64_t net_accept_failures = 0;
};

inline constexpr std::size_t kWireStatsFields = 23;
static_assert(sizeof(WireStats) == kWireStatsFields * sizeof(std::uint64_t),
              "WireStats must stay a flat array of u64 counters (wire v1): "
              "append new fields and bump kWireStatsFields");

/// Decode-side sanity bounds for graphs. The defaults accept anything the
/// frame size already allows; servers tighten max_feature to the model
/// vocabulary so a hostile feature index can never reach an embedding
/// lookup out of bounds.
struct DecodeLimits {
  std::uint32_t max_nodes = 0xFFFFFFFFu;
  std::uint32_t max_edges = 0xFFFFFFFFu;
  std::int32_t max_feature = 0x7FFFFFFF;  // inclusive upper bound
};

// --- Encoding (appends one complete frame to `out`) ------------------------

void encode_graph_into(const graph::ProgramGraph& graph, FrameBytes& out);
void encode_request_into(std::uint64_t tag, const serve::Request& request,
                         FrameBytes& out);
void encode_response_into(std::uint64_t tag, const serve::Response& response,
                          FrameBytes& out);
void encode_stats_request_into(FrameBytes& out);
void encode_stats_reply_into(const WireStats& stats, FrameBytes& out);

// --- Decoding --------------------------------------------------------------

/// Parses a frame header from the first kHeaderBytes of [data, data+size).
/// `size` < kHeaderBytes is InvalidArgument (stream callers check readiness
/// themselves and never call early); so are bad magic, unknown version,
/// unknown type and length > kMaxPayloadBytes.
Status decode_header(const std::uint8_t* data, std::size_t size,
                     FrameHeader* out);

/// Decodes a kGraph payload (exactly [payload, payload+size)) into *out,
/// reusing its node/edge capacity. On error *out is valid but unspecified.
/// Name and node text come back empty (they do not cross the wire).
Status decode_graph(const std::uint8_t* payload, std::size_t size,
                    graph::ProgramGraph* out, const DecodeLimits& limits = {});

/// Decodes a kRequest payload: fixed fields into *out, the inline graph into
/// *graph (reused storage). out->model views into `payload`. The retired
/// priority byte is checked against its old range and discarded.
Status decode_request(const std::uint8_t* payload, std::size_t size,
                      DecodedRequest* out, graph::ProgramGraph* graph,
                      const DecodeLimits& limits = {});

/// Best-effort tag of a kRequest payload too malformed to decode fully, so
/// the server can still answer InvalidArgument to the right query. False
/// when even the tag is truncated.
bool peek_request_tag(const std::uint8_t* payload, std::size_t size,
                      std::uint64_t* tag);

/// Decodes a kResponse payload.
Status decode_response(const std::uint8_t* payload, std::size_t size,
                       DecodedResponse* out);

/// Decodes a kStatsReply payload.
Status decode_stats_reply(const std::uint8_t* payload, std::size_t size,
                          WireStats* out);

}  // namespace irgnn::net
