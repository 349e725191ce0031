// Wire codec and TCP server tests (src/net/).
//
// This binary replaces the global operator new/delete with counting
// wrappers (same scheme as arena_test) so the steady-state test can pin the
// codec's zero-allocation contract: once buffers are warm, encoding and
// decoding the same frame shapes touches the heap exactly zero times.
//
// The other codec contract — malformed input is a Status, never a crash —
// is driven by a seeded mutation fuzz: every truncation of every frame type
// must come back InvalidArgument, and random bit flips may change meaning
// but must never crash, read out of bounds, or produce an out-of-limits
// graph.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gnn/model.h"
#include "graph/fingerprint.h"
#include "graph/graph_builder.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "serve/server.h"
#include "support/rng.h"
#include "workloads/suite.h"

// --- Global allocation counter ---------------------------------------------

static std::atomic<std::uint64_t> g_heap_allocations{0};

static void* counted_alloc(std::size_t size) {
  ++g_heap_allocations;
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocations;
  return std::malloc(size ? size : 1);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace irgnn {
namespace {

using net::DecodedRequest;
using net::DecodedResponse;
using net::FrameBytes;
using net::FrameHeader;
using net::FrameType;
using net::WireStats;
using support::Status;
using support::StatusCode;

graph::ProgramGraph suite_graph(int region) {
  auto module =
      workloads::build_region_module(workloads::benchmark_suite()[region]);
  return graph::build_graph(*module);
}

/// A synthetic graph larger than any suite region, with every node/edge
/// kind and position values exercised.
graph::ProgramGraph big_graph(int nodes, std::uint64_t seed) {
  graph::ProgramGraph g;
  g.name = "synthetic";  // must NOT survive the wire
  Rng rng(seed);
  const int vocab = graph::vocabulary_size();
  for (int i = 0; i < nodes; ++i) {
    graph::Node node;
    node.kind = static_cast<graph::NodeKind>(rng.next_below(3));
    node.feature = static_cast<int>(rng.next_below(vocab));
    node.text = "dropped-on-the-wire";
    g.nodes.push_back(node);
  }
  for (int i = 0; i < nodes * 3; ++i) {
    graph::Edge e;
    e.src = static_cast<std::int32_t>(rng.next_below(nodes));
    e.dst = static_cast<std::int32_t>(rng.next_below(nodes));
    e.kind = static_cast<graph::EdgeKind>(rng.next_below(3));
    e.position = static_cast<std::int32_t>(rng.next_below(8));
    g.edges.push_back(e);
  }
  return g;
}

void expect_same_structure(const graph::ProgramGraph& a,
                           const graph::ProgramGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].kind, b.nodes[i].kind);
    EXPECT_EQ(a.nodes[i].feature, b.nodes[i].feature);
  }
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].src, b.edges[i].src);
    EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
    EXPECT_EQ(a.edges[i].kind, b.edges[i].kind);
    EXPECT_EQ(a.edges[i].position, b.edges[i].position);
  }
  EXPECT_EQ(graph::fingerprint(a), graph::fingerprint(b));
}

// --- Codec round trips ------------------------------------------------------

TEST(NetCodecTest, GraphRoundTripEmptySingleAndLarge) {
  std::vector<graph::ProgramGraph> cases;
  cases.emplace_back();  // empty: 0 nodes, 0 edges
  {
    graph::ProgramGraph one;
    one.nodes.push_back({graph::NodeKind::Instruction, 7, "add"});
    cases.push_back(std::move(one));
  }
  cases.push_back(suite_graph(0));
  cases.push_back(big_graph(5000, 0xB16));

  for (const auto& original : cases) {
    FrameBytes frame;
    net::encode_graph_into(original, frame);
    FrameHeader header;
    ASSERT_TRUE(net::decode_header(frame.data(), frame.size(), &header).ok());
    EXPECT_EQ(header.type, FrameType::kGraph);
    ASSERT_EQ(net::kHeaderBytes + header.payload_bytes, frame.size());

    graph::ProgramGraph decoded;
    decoded.name = "stale";  // decode must fully overwrite reused storage
    ASSERT_TRUE(net::decode_graph(frame.data() + net::kHeaderBytes,
                                  header.payload_bytes, &decoded)
                    .ok());
    expect_same_structure(original, decoded);
    // Debug strings deliberately do not cross the wire.
    EXPECT_TRUE(decoded.name.empty());
    for (const auto& node : decoded.nodes) EXPECT_TRUE(node.text.empty());
  }
}

TEST(NetCodecTest, RequestRoundTripCarriesEveryField) {
  const graph::ProgramGraph g = suite_graph(3);
  serve::Request request(g, "Skylake");
  request.deadline_us = 12345678;

  FrameBytes frame;
  net::encode_request_into(0xDEADBEEFCAFEull, request, frame);
  FrameHeader header;
  ASSERT_TRUE(net::decode_header(frame.data(), frame.size(), &header).ok());
  EXPECT_EQ(header.type, FrameType::kRequest);

  DecodedRequest decoded;
  graph::ProgramGraph storage;
  ASSERT_TRUE(net::decode_request(frame.data() + net::kHeaderBytes,
                                  header.payload_bytes, &decoded, &storage)
                  .ok());
  EXPECT_EQ(decoded.tag, 0xDEADBEEFCAFEull);
  EXPECT_EQ(decoded.deadline_us, 12345678);
  EXPECT_EQ(decoded.model, "Skylake");
  expect_same_structure(g, storage);

  std::uint64_t tag = 0;
  ASSERT_TRUE(net::peek_request_tag(frame.data() + net::kHeaderBytes,
                                    header.payload_bytes, &tag));
  EXPECT_EQ(tag, 0xDEADBEEFCAFEull);
}

TEST(NetCodecTest, RetiredPriorityByteKeepsItsWireRange) {
  // Wire v1 still carries a priority byte after the tag and the deadline.
  // Encoders write 1; decoders accept 0..2, refuse anything above, and
  // ignore the value.
  const graph::ProgramGraph g = suite_graph(3);
  FrameBytes frame;
  net::encode_request_into(7, serve::Request(g), frame);
  constexpr std::size_t kPriorityAt = net::kHeaderBytes + 8 + 8;
  ASSERT_GT(frame.size(), kPriorityAt);
  EXPECT_EQ(frame[kPriorityAt], 1);

  const struct {
    std::uint8_t byte;
    StatusCode code;
  } kTable[] = {{0, StatusCode::kOk},
                {1, StatusCode::kOk},
                {2, StatusCode::kOk},
                {3, StatusCode::kInvalidArgument},
                {255, StatusCode::kInvalidArgument}};
  for (const auto& row : kTable) {
    FrameBytes mutated = frame;
    mutated[kPriorityAt] = row.byte;
    DecodedRequest decoded;
    graph::ProgramGraph storage;
    const Status status =
        net::decode_request(mutated.data() + net::kHeaderBytes,
                            mutated.size() - net::kHeaderBytes, &decoded,
                            &storage);
    EXPECT_EQ(status.code(), row.code) << "priority byte " << int(row.byte);
    if (status.ok()) EXPECT_EQ(decoded.tag, 7u);
  }
}

TEST(NetCodecTest, ResponseRoundTripEveryStatusCode) {
  for (std::uint8_t code = 0; code < support::kNumStatusCodes; ++code) {
    bool valid = false;
    serve::Response response;
    response.status = net::status_from_wire(code, &valid);
    ASSERT_TRUE(valid) << "pinned code " << int(code);
    response.label = 3 + code;
    response.model_version = 40 + code;
    response.source = serve::Source::Coalesced;
    response.queue_us = 17;
    response.compute_us = 23;

    FrameBytes frame;
    net::encode_response_into(0x7A6ull + code, response, frame);
    FrameHeader header;
    ASSERT_TRUE(net::decode_header(frame.data(), frame.size(), &header).ok());
    EXPECT_EQ(header.type, FrameType::kResponse);

    DecodedResponse decoded;
    ASSERT_TRUE(net::decode_response(frame.data() + net::kHeaderBytes,
                                     header.payload_bytes, &decoded)
                    .ok());
    EXPECT_EQ(decoded.tag, 0x7A6ull + code);
    EXPECT_EQ(static_cast<std::uint8_t>(decoded.response.status.code()), code);
    EXPECT_EQ(decoded.response.label, 3 + code);
    EXPECT_EQ(decoded.response.model_version, 40u + code);
    EXPECT_EQ(decoded.response.source, serve::Source::Coalesced);
    EXPECT_EQ(decoded.response.queue_us, 17);
    EXPECT_EQ(decoded.response.compute_us, 23);
  }
  bool valid = true;
  net::status_from_wire(support::kNumStatusCodes, &valid);
  EXPECT_FALSE(valid) << "bytes beyond the pinned range must flag invalid";
}

TEST(NetCodecTest, StatsRoundTripEveryField) {
  WireStats stats;
  // The static_assert in codec.h pins WireStats as a flat u64 array; fill
  // every field with a distinct value through that layout so a field the
  // codec forgets cannot hide.
  auto* fields = reinterpret_cast<std::uint64_t*>(&stats);
  for (std::size_t i = 0; i < net::kWireStatsFields; ++i)
    fields[i] = 1000 + i;

  FrameBytes frame;
  net::encode_stats_reply_into(stats, frame);
  FrameHeader header;
  ASSERT_TRUE(net::decode_header(frame.data(), frame.size(), &header).ok());
  EXPECT_EQ(header.type, FrameType::kStatsReply);

  WireStats decoded;
  ASSERT_TRUE(net::decode_stats_reply(frame.data() + net::kHeaderBytes,
                                      header.payload_bytes, &decoded)
                  .ok());
  const auto* out = reinterpret_cast<const std::uint64_t*>(&decoded);
  for (std::size_t i = 0; i < net::kWireStatsFields; ++i)
    EXPECT_EQ(out[i], 1000 + i) << "WireStats field " << i;

  FrameBytes stats_request;
  net::encode_stats_request_into(stats_request);
  ASSERT_TRUE(
      net::decode_header(stats_request.data(), stats_request.size(), &header)
          .ok());
  EXPECT_EQ(header.type, FrameType::kStatsRequest);
  EXPECT_EQ(header.payload_bytes, 0u);
}

// --- Malformed input --------------------------------------------------------

TEST(NetCodecTest, HeaderRejectsEveryCorruption) {
  FrameBytes frame;
  net::encode_graph_into(suite_graph(0), frame);
  FrameHeader header;
  ASSERT_TRUE(net::decode_header(frame.data(), frame.size(), &header).ok());

  auto corrupted = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> copy(frame.data(), frame.data() + frame.size());
    copy[offset] = value;
    return copy;
  };
  // Bad magic (both bytes), unknown version, unknown frame type.
  for (const auto& bad :
       {corrupted(0, 0x00), corrupted(1, 0xFF), corrupted(2, 99),
        corrupted(3, 0), corrupted(3, 200)}) {
    const Status status = net::decode_header(bad.data(), bad.size(), &header);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  // Oversized length field: rejected before any allocation happens.
  {
    std::vector<std::uint8_t> bad(frame.data(), frame.data() + frame.size());
    const std::uint32_t huge = net::kMaxPayloadBytes + 1;
    std::memcpy(bad.data() + 4, &huge, sizeof(huge));
    EXPECT_EQ(net::decode_header(bad.data(), bad.size(), &header).code(),
              StatusCode::kInvalidArgument);
  }
  // Short buffer.
  EXPECT_FALSE(net::decode_header(frame.data(), 3, &header).ok());
}

TEST(NetCodecTest, EveryTruncationIsInvalidArgumentNeverACrash) {
  // Truncating a payload at ANY byte boundary must produce a clean
  // InvalidArgument from every decoder. This sweeps all of them.
  const graph::ProgramGraph g = suite_graph(7);

  FrameBytes graph_frame;
  net::encode_graph_into(g, graph_frame);
  FrameBytes request_frame;
  net::encode_request_into(42, serve::Request(g, "m"), request_frame);
  FrameBytes response_frame;
  serve::Response response;
  response.label = 4;
  net::encode_response_into(42, response, response_frame);
  FrameBytes stats_frame;
  net::encode_stats_reply_into(WireStats{}, stats_frame);

  auto sweep = [&](const FrameBytes& frame, auto decode) {
    const std::uint8_t* payload = frame.data() + net::kHeaderBytes;
    const std::size_t full = frame.size() - net::kHeaderBytes;
    for (std::size_t cut = 0; cut < full; ++cut) {
      const Status status = decode(payload, cut);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "truncation at " << cut << "/" << full;
    }
    EXPECT_TRUE(decode(payload, full).ok());
  };

  graph::ProgramGraph graph_storage;
  sweep(graph_frame, [&](const std::uint8_t* p, std::size_t n) {
    return net::decode_graph(p, n, &graph_storage);
  });
  DecodedRequest request_storage;
  sweep(request_frame, [&](const std::uint8_t* p, std::size_t n) {
    return net::decode_request(p, n, &request_storage, &graph_storage);
  });
  DecodedResponse response_storage;
  sweep(response_frame, [&](const std::uint8_t* p, std::size_t n) {
    return net::decode_response(p, n, &response_storage);
  });
  WireStats stats_storage;
  sweep(stats_frame, [&](const std::uint8_t* p, std::size_t n) {
    return net::decode_stats_reply(p, n, &stats_storage);
  });
}

TEST(NetCodecTest, SeededMutationFuzzNeverCrashes) {
  // Random bit flips and size lies against the request decoder (the one
  // facing untrusted bytes in production). A flip may legitimately still
  // decode — to a different graph — so the gate is: never crash, and
  // whatever decodes respects DecodeLimits.
  const graph::ProgramGraph g = suite_graph(12);
  FrameBytes frame;
  net::encode_request_into(7, serve::Request(g), frame);
  const std::uint8_t* payload = frame.data() + net::kHeaderBytes;
  const std::size_t size = frame.size() - net::kHeaderBytes;

  net::DecodeLimits limits;
  limits.max_feature = graph::vocabulary_size() - 1;
  limits.max_nodes = 1u << 20;
  limits.max_edges = 1u << 20;

  Rng rng(0xF022);
  std::vector<std::uint8_t> mutant(payload, payload + size);
  graph::ProgramGraph storage;
  for (int round = 0; round < 3000; ++round) {
    mutant.assign(payload, payload + size);
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f)
      mutant[rng.next_below(mutant.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    // Also lie about the size sometimes (the stream layer can deliver any
    // length the header claimed).
    std::size_t claimed = mutant.size();
    if (rng.next_below(4) == 0) claimed = rng.next_below(mutant.size() + 1);

    DecodedRequest decoded;
    const Status status =
        net::decode_request(mutant.data(), claimed, &decoded, &storage, limits);
    if (status.ok()) {
      for (const auto& node : storage.nodes) {
        ASSERT_GE(node.feature, 0);
        ASSERT_LE(node.feature, limits.max_feature);
      }
      for (const auto& edge : storage.edges) {
        ASSERT_GE(edge.src, 0);
        ASSERT_LT(static_cast<std::size_t>(edge.src), storage.num_nodes());
        ASSERT_GE(edge.dst, 0);
        ASSERT_LT(static_cast<std::size_t>(edge.dst), storage.num_nodes());
      }
    } else {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetCodecTest, DecodeLimitsBoundHostileGraphs) {
  graph::ProgramGraph g;
  g.nodes.push_back({graph::NodeKind::Instruction, 5, ""});
  g.nodes.push_back({graph::NodeKind::Variable, 2, ""});
  g.edges.push_back({0, 1, graph::EdgeKind::Data, 0});

  FrameBytes frame;
  net::encode_graph_into(g, frame);
  const std::uint8_t* payload = frame.data() + net::kHeaderBytes;
  const std::size_t size = frame.size() - net::kHeaderBytes;
  graph::ProgramGraph storage;

  net::DecodeLimits tight;
  tight.max_feature = 4;  // node 0 carries feature 5
  EXPECT_EQ(net::decode_graph(payload, size, &storage, tight).code(),
            StatusCode::kInvalidArgument);
  tight = {};
  tight.max_nodes = 1;
  EXPECT_EQ(net::decode_graph(payload, size, &storage, tight).code(),
            StatusCode::kInvalidArgument);
  tight = {};
  tight.max_edges = 0;
  EXPECT_EQ(net::decode_graph(payload, size, &storage, tight).code(),
            StatusCode::kInvalidArgument);
}

// --- Zero allocation in steady state ----------------------------------------

TEST(NetCodecTest, SteadyStateEncodeDecodeIsAllocationFree) {
  const graph::ProgramGraph g = suite_graph(18);
  serve::Response response;
  response.label = 9;

  FrameBytes request_frame;
  FrameBytes response_frame;
  graph::ProgramGraph storage;
  DecodedRequest decoded_request;
  DecodedResponse decoded_response;
  FrameHeader header;

  auto round_trip = [&](std::uint64_t tag) {
    request_frame.clear();
    net::encode_request_into(tag, serve::Request(g), request_frame);
    ASSERT_TRUE(net::decode_header(request_frame.data(), request_frame.size(),
                                   &header)
                    .ok());
    ASSERT_TRUE(net::decode_request(request_frame.data() + net::kHeaderBytes,
                                    header.payload_bytes, &decoded_request,
                                    &storage)
                    .ok());
    response_frame.clear();
    net::encode_response_into(tag, response, response_frame);
    ASSERT_TRUE(net::decode_response(response_frame.data() + net::kHeaderBytes,
                                     response_frame.size() - net::kHeaderBytes,
                                     &decoded_response)
                    .ok());
  };

  for (std::uint64_t warm = 0; warm < 4; ++warm) round_trip(warm);

  const std::uint64_t before = g_heap_allocations.load();
  for (std::uint64_t hot = 0; hot < 64; ++hot) round_trip(100 + hot);
  const std::uint64_t after = g_heap_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "warm encode/decode round trips must never touch the heap";
}

// --- Loopback end to end ----------------------------------------------------

gnn::ModelConfig small_config() {
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 5;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.seed = 913;
  cfg.num_threads = 1;
  return cfg;
}

serve::ModelPtr small_model() {
  return std::make_shared<const gnn::StaticModel>(small_config());
}

/// The daemon's admission default (irgnn_served --max-queue 256).
serve::ServerConfig daemon_config() {
  serve::ServerConfig config;
  config.max_queue = 256;
  return config;
}

/// A blocking raw TCP connection to 127.0.0.1:`port`, for bytes NetClient
/// would not send; -1 on failure.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_exact(int fd, std::uint8_t* dst, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::recv(fd, dst, size, 0);
    if (n <= 0) return false;
    dst += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads and decodes one kResponse frame off a raw connection.
bool recv_response(int fd, DecodedResponse* out) {
  std::uint8_t head[net::kHeaderBytes];
  FrameHeader header;
  if (!recv_exact(fd, head, sizeof(head)) ||
      !net::decode_header(head, sizeof(head), &header).ok() ||
      header.type != FrameType::kResponse)
    return false;
  std::vector<std::uint8_t> payload(header.payload_bytes);
  return recv_exact(fd, payload.data(), payload.size()) &&
         net::decode_response(payload.data(), payload.size(), out).ok();
}

TEST(NetServerTest, LoopbackAnswersAreBitIdenticalToTheServer) {
  // At 1 and 4 connections. The reference model is built
  // apart from the served one, from the same config: deterministic
  // construction is what lets a client rebuild the served model instead of
  // receiving its weights.
  std::vector<graph::ProgramGraph> graphs;
  for (int r : {0, 3, 7, 12, 18, 23}) graphs.push_back(suite_graph(r));
  std::vector<const graph::ProgramGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  const std::vector<int> expected =
      gnn::StaticModel(small_config()).predict(ptrs);
  constexpr int kPasses = 3;  // pass 1 misses, later passes hit

  for (int connections : {1, 4}) {
    SCOPED_TRACE(std::to_string(connections) + " connections");
    serve::InferenceServer inference(small_model(), daemon_config());
    net::NetServer server(inference, {});
    ASSERT_TRUE(server.start().ok());
    ASSERT_NE(server.port(), 0);

    std::atomic<int> wrong{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back([&] {
        net::NetClient client;
        if (!client.connect("127.0.0.1", server.port()).ok()) {
          wrong += kPasses * static_cast<int>(graphs.size());
          return;
        }
        for (int pass = 0; pass < kPasses; ++pass)
          for (std::size_t g = 0; g < graphs.size(); ++g) {
            auto wire = client.predict(serve::Request(graphs[g]));
            if (!wire.ok() || !wire->ok() || wire->label != expected[g] ||
                wire->model_version != serve::kModelVersion)
              ++wrong;
          }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(wrong.load(), 0);
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const serve::Response local = inference.predict(graphs[g]);
      ASSERT_TRUE(local.ok());
      EXPECT_EQ(local.label, expected[g]);
    }

    // Conservation, read back over the wire.
    net::NetClient stats_client;
    ASSERT_TRUE(stats_client.connect("127.0.0.1", server.port()).ok());
    net::WireStats stats{};
    ASSERT_TRUE(stats_client.get_stats(&stats).ok());
    EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.coalesced,
              stats.queries);
    EXPECT_EQ(stats.net_requests,
              static_cast<std::uint64_t>(connections * kPasses) *
                  graphs.size());
    EXPECT_EQ(stats.net_decode_errors, 0u);
    EXPECT_EQ(stats.net_protocol_errors, 0u);

    stats_client.close();
    server.shutdown();
    const net::NetServerStats net_stats = server.stats();
    EXPECT_TRUE(net_stats.finished);
    EXPECT_EQ(net_stats.open_slots, 0u);
  }
}

TEST(NetServerTest, PipelinedTagsMatchOutOfOrderCompletions) {
  serve::InferenceServer inference(small_model(), daemon_config());
  net::NetServer server(inference, {});
  ASSERT_TRUE(server.start().ok());

  std::vector<graph::ProgramGraph> graphs;
  for (int r : {0, 3, 7, 12}) graphs.push_back(suite_graph(r));
  std::vector<int> expected;
  for (const auto& g : graphs) expected.push_back(inference.predict(g).label);

  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  const int kBurst = 40;
  for (int q = 0; q < kBurst; ++q)
    ASSERT_TRUE(client
                    .send(serve::Request(graphs[q % graphs.size()]),
                          static_cast<std::uint64_t>(q))
                    .ok());
  std::vector<bool> seen(kBurst, false);
  for (int q = 0; q < kBurst; ++q) {
    auto decoded = client.recv();
    ASSERT_TRUE(decoded.ok());
    ASSERT_LT(decoded->tag, static_cast<std::uint64_t>(kBurst));
    EXPECT_FALSE(seen[decoded->tag]) << "tag answered twice";
    seen[decoded->tag] = true;
    ASSERT_TRUE(decoded->response.ok());
    EXPECT_EQ(decoded->response.label, expected[decoded->tag % graphs.size()]);
  }

  client.close();
  server.shutdown();
  EXPECT_EQ(server.stats().open_slots, 0u);
}

TEST(NetServerTest, GarbageBytesCloseOnlyTheGuiltyConnection) {
  serve::InferenceServer inference(small_model(), daemon_config());
  net::NetServer server(inference, {});
  ASSERT_TRUE(server.start().ok());
  const graph::ProgramGraph g = suite_graph(0);
  const int expected = inference.predict(g).label;

  // An innocent connection with a query in flight on either side of the
  // garbage must be unaffected.
  net::NetClient innocent;
  ASSERT_TRUE(innocent.connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(innocent.predict(serve::Request(g)).ok());

  {
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
    // The server must close us (bad magic = unrecoverable stream) — read
    // blocks until EOF rather than data, because no reply is owed.
    char buf[16];
    EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
    ::close(fd);
  }

  auto after = innocent.predict(serve::Request(g));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->label, expected);

  innocent.close();
  server.shutdown();
  const net::NetServerStats stats = server.stats();
  EXPECT_GE(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.open_slots, 0u);
}

TEST(NetServerTest, WellFramedMalformedPayloadAnswersInvalidArgument) {
  serve::InferenceServer inference(small_model(), daemon_config());
  net::NetServer server(inference, {});
  ASSERT_TRUE(server.start().ok());

  // A request frame whose graph body is truncated, but whose header and tag
  // are intact: the server must answer InvalidArgument to that tag and keep
  // the connection (framing is still sound).
  FrameBytes frame;
  const graph::ProgramGraph g = suite_graph(3);
  net::encode_request_into(77, serve::Request(g), frame);
  std::vector<std::uint8_t> cut(frame.data(), frame.data() + frame.size());
  const std::uint32_t shorter =
      static_cast<std::uint32_t>(cut.size() - net::kHeaderBytes - 4);
  std::memcpy(cut.data() + 4, &shorter, sizeof(shorter));
  cut.resize(net::kHeaderBytes + shorter);

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, cut.data(), cut.size()));
  DecodedResponse decoded;
  ASSERT_TRUE(recv_response(fd, &decoded));
  EXPECT_EQ(decoded.tag, 77u);
  EXPECT_EQ(decoded.response.status.code(), StatusCode::kInvalidArgument);
  ::close(fd);

  server.shutdown();
  const net::NetServerStats stats = server.stats();
  EXPECT_GE(stats.decode_errors, 1u);
  EXPECT_EQ(stats.open_slots, 0u);
}

TEST(NetServerTest, ForeignModelNameIsModelNotFound) {
  // One model per process: the empty name and net::kModelName get the
  // served model's bits; any other name is refused ModelNotFound before it
  // reaches the InferenceServer, so it never counts as a query.
  const graph::ProgramGraph g = suite_graph(3);
  const int expected = gnn::StaticModel(small_config()).predict({&g})[0];
  serve::InferenceServer inference(small_model(), daemon_config());
  net::NetServer server(inference, {});
  ASSERT_TRUE(server.start().ok());

  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  for (std::string_view name : {std::string_view{}, net::kModelName}) {
    auto wire = client.predict(serve::Request(g, name));
    ASSERT_TRUE(wire.ok());
    ASSERT_TRUE(wire->ok()) << "model \"" << name << "\": "
                            << wire->status.code_name();
    EXPECT_EQ(wire->label, expected);
  }
  auto foreign = client.predict(serve::Request(g, "haswell"));
  ASSERT_TRUE(foreign.ok());
  EXPECT_EQ(foreign->status.code(), StatusCode::kModelNotFound);
  EXPECT_EQ(foreign->source, serve::Source::Shed);
  EXPECT_EQ(foreign->model_version, 0u);

  WireStats stats{};
  ASSERT_TRUE(client.get_stats(&stats).ok());
  EXPECT_EQ(stats.net_requests, 3u);
  EXPECT_EQ(stats.model_not_found, 1u);
  EXPECT_EQ(stats.routed, 2u);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.coalesced,
            stats.queries);

  client.close();
  server.shutdown();
  EXPECT_EQ(server.stats().open_slots, 0u);
}

TEST(NetServerTest, FullWriteBufferShedsPipelinedRequestsUnadmitted) {
  // With no write budget, a request parsed while an answer is still unsent
  // on its connection is answered Overloaded without reaching the
  // InferenceServer. One send carries the whole burst and nothing is read
  // until it is sent, so the loop parses several frames before it flushes.
  const graph::ProgramGraph g = suite_graph(3);
  const int expected = gnn::StaticModel(small_config()).predict({&g})[0];
  serve::InferenceServer inference(small_model(), daemon_config());
  ASSERT_EQ(inference.predict(g).label, expected);  // cached from here on
  net::NetServerConfig config;
  config.max_write_buffer = 0;
  net::NetServer server(inference, config);
  ASSERT_TRUE(server.start().ok());

  constexpr int kBurst = 16;
  FrameBytes burst;
  for (int q = 0; q < kBurst; ++q)
    net::encode_request_into(static_cast<std::uint64_t>(q), serve::Request(g),
                             burst);
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  std::vector<int> answers(kBurst, 0);
  std::uint64_t shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    DecodedResponse decoded;
    ASSERT_TRUE(recv_response(fd, &decoded));
    ASSERT_LT(decoded.tag, static_cast<std::uint64_t>(kBurst));
    ++answers[decoded.tag];
    const serve::Response& r = decoded.response;
    if (r.ok()) {
      EXPECT_EQ(r.label, expected) << "tag " << decoded.tag;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kOverloaded);
      EXPECT_EQ(r.source, serve::Source::Shed);
      ++shed;
    }
  }
  for (int q = 0; q < kBurst; ++q) EXPECT_EQ(answers[q], 1) << "tag " << q;
  EXPECT_GE(shed, 1u) << "the burst never met a full write buffer";

  net::NetClient stats_client;
  ASSERT_TRUE(stats_client.connect("127.0.0.1", server.port()).ok());
  WireStats stats{};
  ASSERT_TRUE(stats_client.get_stats(&stats).ok());
  EXPECT_EQ(stats.net_backpressure_shed, shed);
  // A shed request was never admitted: the queries are the warm-up plus
  // the answered part of the burst.
  EXPECT_EQ(stats.queries, 1 + kBurst - shed);

  ::close(fd);
  stats_client.close();
  for (int i = 0; i < 500 && server.stats().open_slots != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.stats().open_slots, 0u);
  server.shutdown();
}

/// Pipelines `burst` requests cycling over `graphs` on one connection,
/// requests a drain (at once, or once the first refusal is back), and reads
/// to EOF. Every answer must be the served model's serial predict (the
/// InferenceServer's answer, bit for bit) or an Overloaded refusal, and the
/// drain must free every slot. Sets *refused to the number of refusals read.
void drain_mid_burst(const serve::ServerConfig& config,
                     const std::vector<graph::ProgramGraph>& graphs,
                     int burst, bool after_first_refusal, int* refused) {
  auto model = std::make_shared<const gnn::StaticModel>(small_config());
  std::vector<const graph::ProgramGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  const std::vector<int> expected = model->predict(ptrs);
  serve::InferenceServer inference(model, config);
  net::NetServer server(inference, {});
  ASSERT_TRUE(server.start().ok());
  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  for (int q = 0; q < burst; ++q)
    ASSERT_TRUE(client
                    .send(serve::Request(graphs[q % graphs.size()]),
                          static_cast<std::uint64_t>(q))
                    .ok());

  // Everything admitted before the drain saw it must come back with its
  // label; a refusal is Overloaded, never a wrong label. Then the server
  // closes the connection (clean EOF on recv).
  int received = 0;
  *refused = 0;
  auto read_one = [&] {
    auto decoded = client.recv();
    if (!decoded.ok()) return false;
    ++received;
    EXPECT_LT(decoded->tag, static_cast<std::uint64_t>(burst));
    const serve::Response& r = decoded->response;
    if (r.ok()) {
      EXPECT_EQ(r.label, expected[decoded->tag % graphs.size()])
          << "tag " << decoded->tag;
      EXPECT_EQ(r.model_version, serve::kModelVersion);
    } else if (r.status.code() == StatusCode::kOverloaded) {
      ++*refused;
      EXPECT_EQ(r.model_version, 0u) << "a shed answer names no model";
    } else {
      ADD_FAILURE() << "tag " << decoded->tag << " answered "
                    << r.status.code_name();
    }
    return true;
  };
  if (after_first_refusal)
    while (*refused == 0 && received < burst && read_one()) {
    }
  server.request_drain();
  while (read_one()) {
  }
  EXPECT_LE(received, burst);
  server.wait();
  const net::NetServerStats stats = server.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(stats.open_slots, 0u);
  // Double drain is idempotent and wait() after finish returns immediately.
  server.request_drain();
  server.wait();
}

TEST(NetServerTest, DrainAnswersInFlightThenExitsCleanly) {
  // One graph pipelined 16 times and drained at once: the duplicates
  // coalesce, so nothing is refused.
  int refused = -1;
  drain_mid_burst(daemon_config(), {suite_graph(7)}, 16,
                  /*after_first_refusal=*/false, &refused);
  EXPECT_EQ(refused, 0);

  // Distinct graphs into a 2-deep queue with the cache off, so each one
  // needs a forward. The whole burst is pipelined before any answer is
  // read, and one forward outlasts the arrival of the next queued requests,
  // so the queue is full while the burst lands: the server refuses part of
  // it, and the drain comes mid-stream. Should refusals ever stop, enlarge
  // the burst; the check below must keep demanding them.
  serve::ServerConfig tight;
  tight.max_queue = 2;
  tight.cache_capacity = 0;
  std::vector<graph::ProgramGraph> distinct;
  for (std::size_t r = 0; r < workloads::benchmark_suite().size(); ++r)
    distinct.push_back(suite_graph(static_cast<int>(r)));
  drain_mid_burst(tight, distinct, 4 * static_cast<int>(distinct.size()),
                  /*after_first_refusal=*/true, &refused);
  EXPECT_GT(refused, 0) << "the burst never overflowed the queue";
}

TEST(NetServerTest, StartFailsCleanlyOnABadHost) {
  serve::InferenceServer inference(small_model(), daemon_config());
  net::NetServerConfig config;
  config.host = "not-an-ipv4-address";
  net::NetServer server(inference, config);
  const Status status = server.start();
  EXPECT_FALSE(status.ok());
  server.shutdown();  // must be safe after a failed start
}

}  // namespace
}  // namespace irgnn
