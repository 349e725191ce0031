// Client side of the wire protocol: a blocking TCP connection speaking
// net/codec frames to an irgnn_served process.
//
// Two usage shapes:
//
//   Synchronous predict(). One round trip per call: encode a kRequest with a
//   fresh tag, send, read frames until the echoed tag comes back. The wire
//   twin of serve::InferenceServer::predict; tests/net_test.cpp checks that
//   both answer with the same bits.
//
//   Pipelined send()/recv(). Queue many tagged requests before reading any
//   answer; recv() returns responses in arrival order, which is NOT send
//   order (a cache hit overtakes an older miss), so callers match by tag.
//   One connection, hundreds of queries in flight: the open-loop mode.
//
// Do not interleave predict() with outstanding pipelined sends on one
// connection: predict() consumes frames until its own tag appears and has
// nowhere to put other tags' answers.
//
// Encode and receive buffers are BufferPool-backed and reused across calls,
// so a warm client round trip allocates nothing. All failures — connect
// timeouts, the server closing mid-read (drain, protocol error), malformed
// reply frames — are Status values, never exceptions.
#pragma once

#include <cstdint>
#include <string>

#include "net/codec.h"

namespace irgnn::net {

class NetClient {
 public:
  NetClient() = default;
  ~NetClient() { close(); }

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects to host:port, retrying refused connections until `timeout_ms`
  /// elapses — which absorbs the race of a client starting before the
  /// server's listen(), the normal shape of a CI loopback run.
  Status connect(const std::string& host, std::uint16_t port,
                 std::int64_t timeout_ms = 5000);

  void close();
  bool connected() const { return fd_ >= 0; }

  /// One synchronous round trip. Submit-side failures the server folded
  /// into a wire Response (Overloaded, ModelNotFound...) come back as that
  /// Response; transport failures (EOF, bad frame) are the error Status.
  StatusOr<serve::Response> predict(const serve::Request& request);

  /// Pipelined: encodes and sends one kRequest under `tag` without waiting.
  Status send(const serve::Request& request, std::uint64_t tag);

  /// Pipelined: blocks for the next kResponse frame (arrival order).
  StatusOr<DecodedResponse> recv();

  /// Asks the server for its counters (kStatsRequest round trip).
  Status get_stats(WireStats* out);

 private:
  Status send_all(const FrameBytes& bytes);
  Status read_exact(std::uint8_t* dst, std::size_t size);
  /// Reads one frame into recv_buf_ (payload only), returning its header.
  Status read_frame(FrameHeader* header);

  int fd_ = -1;
  std::uint64_t next_tag_ = 1;
  FrameBytes send_buf_;
  FrameBytes recv_buf_;
};

}  // namespace irgnn::net
