#include "net/codec.h"

#include <cstring>

namespace irgnn::net {

namespace {

// --- Little-endian primitives ---------------------------------------------
// Shift-based so encoding is identical on every host; the compiler folds
// these to single moves on little-endian targets.

void put_u8(FrameBytes& out, std::uint8_t v) { out.push_back(v); }

void put_u16(FrameBytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(FrameBytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(FrameBytes& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_i32(FrameBytes& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(FrameBytes& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

/// Bounds-checked sequential reader over one payload. Every get_* fails
/// (and latches failure) on underflow instead of reading past the end;
/// callers check ok() once after the last field plus exhausted() to reject
/// trailing garbage.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool exhausted() const { return ok_ && pos_ == size_; }
  std::size_t remaining() const { return ok_ ? size_ - pos_ : 0; }
  const std::uint8_t* cursor() const { return data_ + pos_; }

  std::uint8_t get_u8() {
    if (!take(1)) return 0;
    return data_[pos_ - 1];
  }

  std::uint16_t get_u16() {
    if (!take(2)) return 0;
    const std::uint8_t* p = data_ + pos_ - 2;
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }

  std::uint32_t get_u32() {
    if (!take(4)) return 0;
    const std::uint8_t* p = data_ + pos_ - 4;
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }

  std::uint64_t get_u64() {
    std::uint64_t lo = get_u32();
    std::uint64_t hi = get_u32();
    return lo | (hi << 32);
  }

  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

  /// Claims `n` raw bytes; nullptr (with failure latched) on underflow.
  const std::uint8_t* get_bytes(std::size_t n) {
    if (!take(n)) return nullptr;
    return data_ + pos_ - n;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// A kRequest's byte after the deadline once carried a shedding priority
/// (0 Low, 1 Normal, 2 High). Wire v1 keeps it: encoders write 1, decoders
/// refuse a byte above 2 and otherwise discard it.
constexpr std::uint8_t kPriorityByte = 1;
constexpr std::uint8_t kMaxPriorityByte = 2;

/// Appends a frame header with a zero length, returning the offset of the
/// length field for finish_frame to backpatch once the payload is written.
std::size_t begin_frame(FrameBytes& out, FrameType type) {
  put_u16(out, kMagic);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  std::size_t length_at = out.size();
  put_u32(out, 0);
  return length_at;
}

void finish_frame(FrameBytes& out, std::size_t length_at) {
  std::uint32_t payload =
      static_cast<std::uint32_t>(out.size() - length_at - 4);
  out[length_at] = static_cast<std::uint8_t>(payload);
  out[length_at + 1] = static_cast<std::uint8_t>(payload >> 8);
  out[length_at + 2] = static_cast<std::uint8_t>(payload >> 16);
  out[length_at + 3] = static_cast<std::uint8_t>(payload >> 24);
}

void put_graph_body(const graph::ProgramGraph& graph, FrameBytes& out) {
  put_u32(out, static_cast<std::uint32_t>(graph.nodes.size()));
  put_u32(out, static_cast<std::uint32_t>(graph.edges.size()));
  for (const graph::Node& node : graph.nodes) {
    put_u8(out, static_cast<std::uint8_t>(node.kind));
    put_i32(out, node.feature);
  }
  for (const graph::Edge& edge : graph.edges) {
    put_i32(out, edge.src);
    put_i32(out, edge.dst);
    put_u8(out, static_cast<std::uint8_t>(edge.kind));
    put_i32(out, edge.position);
  }
}

constexpr std::uint64_t kNodeWireBytes = 5;   // kind u8 + feature i32
constexpr std::uint64_t kEdgeWireBytes = 13;  // src/dst i32 + kind u8 + pos i32

Status get_graph_body(Reader& r, graph::ProgramGraph* out,
                      const DecodeLimits& limits) {
  const std::uint32_t num_nodes = r.get_u32();
  const std::uint32_t num_edges = r.get_u32();
  if (!r.ok()) return Status::InvalidArgument("truncated graph header");
  if (num_nodes > limits.max_nodes)
    return Status::InvalidArgument("graph node count exceeds limit");
  if (num_edges > limits.max_edges)
    return Status::InvalidArgument("graph edge count exceeds limit");
  // u64 arithmetic: counts are u32, so this cannot overflow; the comparison
  // against what the payload actually holds rejects lying counts before any
  // per-element read.
  const std::uint64_t need =
      kNodeWireBytes * num_nodes + kEdgeWireBytes * num_edges;
  if (need > r.remaining())
    return Status::InvalidArgument("graph counts exceed payload size");

  out->name.clear();
  out->nodes.resize(num_nodes);
  out->edges.resize(num_edges);
  for (graph::Node& node : out->nodes) {
    const std::uint8_t kind = r.get_u8();
    const std::int32_t feature = r.get_i32();
    if (kind > static_cast<std::uint8_t>(graph::NodeKind::Constant))
      return Status::InvalidArgument("node kind out of range");
    if (feature < 0 || feature > limits.max_feature)
      return Status::InvalidArgument("node feature out of vocabulary");
    node.kind = static_cast<graph::NodeKind>(kind);
    node.feature = feature;
    node.text.clear();  // debug text does not cross the wire
  }
  for (graph::Edge& edge : out->edges) {
    edge.src = r.get_i32();
    edge.dst = r.get_i32();
    const std::uint8_t kind = r.get_u8();
    edge.position = r.get_i32();
    if (kind >= static_cast<std::uint8_t>(graph::kNumEdgeKinds))
      return Status::InvalidArgument("edge kind out of range");
    if (edge.src < 0 || edge.dst < 0 ||
        static_cast<std::uint32_t>(edge.src) >= num_nodes ||
        static_cast<std::uint32_t>(edge.dst) >= num_nodes)
      return Status::InvalidArgument("edge endpoint out of range");
    edge.kind = static_cast<graph::EdgeKind>(kind);
  }
  if (!r.ok()) return Status::InvalidArgument("truncated graph body");
  return Status::Ok();
}

}  // namespace

Status status_from_wire(std::uint8_t wire, bool* valid) {
  *valid = true;
  switch (static_cast<StatusCode>(wire)) {
    case StatusCode::kOk: return Status::Ok();
    case StatusCode::kOverloaded: return Status::Overloaded();
    case StatusCode::kDeadlineExceeded: return Status::DeadlineExceeded();
    case StatusCode::kModelNotFound: return Status::ModelNotFound();
    case StatusCode::kShuttingDown: return Status::ShuttingDown();
    case StatusCode::kInternal: return Status::Internal();
    case StatusCode::kUnavailable: return Status::Unavailable();
    case StatusCode::kInvalidArgument: return Status::InvalidArgument();
  }
  *valid = false;
  return Status::InvalidArgument("status code out of range");
}

void encode_graph_into(const graph::ProgramGraph& graph, FrameBytes& out) {
  std::size_t length_at = begin_frame(out, FrameType::kGraph);
  put_graph_body(graph, out);
  finish_frame(out, length_at);
}

void encode_request_into(std::uint64_t tag, const serve::Request& request,
                         FrameBytes& out) {
  std::size_t length_at = begin_frame(out, FrameType::kRequest);
  put_u64(out, tag);
  put_i64(out, request.deadline_us);
  put_u8(out, kPriorityByte);
  put_u16(out, static_cast<std::uint16_t>(request.model.size()));
  for (char c : request.model) out.push_back(static_cast<std::uint8_t>(c));
  put_graph_body(*request.graph, out);
  finish_frame(out, length_at);
}

void encode_response_into(std::uint64_t tag, const serve::Response& response,
                          FrameBytes& out) {
  std::size_t length_at = begin_frame(out, FrameType::kResponse);
  put_u64(out, tag);
  put_u8(out, wire_status(response.status));
  put_i32(out, response.label);
  put_u64(out, response.model_version);
  put_u8(out, static_cast<std::uint8_t>(response.source));
  put_i64(out, response.queue_us);
  put_i64(out, response.compute_us);
  finish_frame(out, length_at);
}

void encode_stats_request_into(FrameBytes& out) {
  std::size_t length_at = begin_frame(out, FrameType::kStatsRequest);
  finish_frame(out, length_at);
}

void encode_stats_reply_into(const WireStats& stats, FrameBytes& out) {
  std::size_t length_at = begin_frame(out, FrameType::kStatsReply);
  const std::uint64_t* fields =
      reinterpret_cast<const std::uint64_t*>(&stats);
  for (std::size_t i = 0; i < kWireStatsFields; ++i) put_u64(out, fields[i]);
  finish_frame(out, length_at);
}

Status decode_header(const std::uint8_t* data, std::size_t size,
                     FrameHeader* out) {
  Reader r(data, size);
  const std::uint16_t magic = r.get_u16();
  const std::uint8_t version = r.get_u8();
  const std::uint8_t type = r.get_u8();
  const std::uint32_t length = r.get_u32();
  if (!r.ok()) return Status::InvalidArgument("truncated frame header");
  if (magic != kMagic) return Status::InvalidArgument("bad frame magic");
  if (version != kWireVersion)
    return Status::InvalidArgument("unsupported wire version");
  if (type < static_cast<std::uint8_t>(FrameType::kGraph) ||
      type > static_cast<std::uint8_t>(FrameType::kStatsReply))
    return Status::InvalidArgument("unknown frame type");
  if (length > kMaxPayloadBytes)
    return Status::InvalidArgument("frame payload exceeds size bound");
  out->type = static_cast<FrameType>(type);
  out->payload_bytes = length;
  return Status::Ok();
}

Status decode_graph(const std::uint8_t* payload, std::size_t size,
                    graph::ProgramGraph* out, const DecodeLimits& limits) {
  Reader r(payload, size);
  Status status = get_graph_body(r, out, limits);
  if (!status.ok()) return status;
  if (!r.exhausted())
    return Status::InvalidArgument("trailing bytes after graph");
  return Status::Ok();
}

Status decode_request(const std::uint8_t* payload, std::size_t size,
                      DecodedRequest* out, graph::ProgramGraph* graph,
                      const DecodeLimits& limits) {
  Reader r(payload, size);
  out->tag = r.get_u64();
  out->deadline_us = r.get_i64();
  const std::uint8_t priority = r.get_u8();
  const std::uint16_t model_len = r.get_u16();
  const std::uint8_t* model = r.get_bytes(model_len);
  if (!r.ok()) return Status::InvalidArgument("truncated request fields");
  if (priority > kMaxPriorityByte)
    return Status::InvalidArgument("priority out of range");
  out->model = std::string_view(reinterpret_cast<const char*>(model),
                                model_len);
  Status status = get_graph_body(r, graph, limits);
  if (!status.ok()) return status;
  if (!r.exhausted())
    return Status::InvalidArgument("trailing bytes after request");
  return Status::Ok();
}

bool peek_request_tag(const std::uint8_t* payload, std::size_t size,
                      std::uint64_t* tag) {
  Reader r(payload, size);
  *tag = r.get_u64();
  return r.ok();
}

Status decode_response(const std::uint8_t* payload, std::size_t size,
                       DecodedResponse* out) {
  Reader r(payload, size);
  out->tag = r.get_u64();
  const std::uint8_t status_byte = r.get_u8();
  out->response.label = r.get_i32();
  out->response.model_version = r.get_u64();
  const std::uint8_t source = r.get_u8();
  out->response.queue_us = r.get_i64();
  out->response.compute_us = r.get_i64();
  if (!r.ok()) return Status::InvalidArgument("truncated response");
  if (!r.exhausted())
    return Status::InvalidArgument("trailing bytes after response");
  bool status_valid = false;
  out->response.status = status_from_wire(status_byte, &status_valid);
  if (!status_valid)
    return Status::InvalidArgument("status code out of range");
  if (source > static_cast<std::uint8_t>(serve::Source::Shed))
    return Status::InvalidArgument("source out of range");
  out->response.source = static_cast<serve::Source>(source);
  return Status::Ok();
}

Status decode_stats_reply(const std::uint8_t* payload, std::size_t size,
                          WireStats* out) {
  Reader r(payload, size);
  std::uint64_t* fields = reinterpret_cast<std::uint64_t*>(out);
  for (std::size_t i = 0; i < kWireStatsFields; ++i) fields[i] = r.get_u64();
  if (!r.ok()) return Status::InvalidArgument("truncated stats reply");
  if (!r.exhausted())
    return Status::InvalidArgument("trailing bytes after stats reply");
  return Status::Ok();
}

}  // namespace irgnn::net
