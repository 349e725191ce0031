// Out-of-process front door: an epoll-based TCP server that multiplexes
// many connections onto one serve::InferenceServer.
//
// NetServer turns the in-process serving stack into a network service
// without adding a second concurrency substrate: the whole event loop —
// accept, non-blocking reads, frame parsing, response flushing — is ONE task
// on the shared support::ThreadPool, and completed predictions come back to
// it through Future::then continuations that run on whatever pool thread
// pumps the answering micro-batch. The loop and the continuations meet at a
// per-connection outbox under one server mutex; an eventfd wakes the loop
// when a continuation deposits a response. No thread is ever spawned and no
// call ever blocks the loop: a full admission queue refuses at once.
//
// Request lifecycle: a complete kRequest frame is decoded into a pooled
// InflightQuery (graph storage reused across requests, so a steady-state
// connection decodes without heap allocations), submitted to the
// InferenceServer, and answered through then(); the wire Response echoes
// the client's tag, so pipelined clients match out-of-order completions
// (cache hits resolve before older misses). Malformed payloads answer
// InvalidArgument when the tag is readable; stream-level garbage (bad
// magic/version, lying lengths) closes the connection — a byte stream
// cannot be resynchronized after framing is lost. Neither path ever throws
// or crashes the server (tests/net_test.cpp fuzzes it; tests/chaos_test.cpp
// disconnects mid-frame and injects read/write/decode/accept faults).
//
// TCP backpressure sheds instead of buffering without bound: each
// connection's encoded-but-unsent bytes are capped by `max_write_buffer`.
// Over the cap, new requests on that connection are answered Overloaded
// at once (a 46-byte frame, Source::Shed) without being admitted, and
// counted in backpressure_shed. A slow reader therefore costs bounded
// memory and sheds its own traffic; it can never stall other connections
// or the loop.
//
// One model per process: a request naming any model but kModelName (an
// empty name means "the model") is answered ModelNotFound before it reaches
// the InferenceServer, and counted in model_not_found; every other
// well-formed request is submitted and counted in routed.
//
// Graceful drain (SIGTERM in irgnn_served): request_drain() is
// async-signal-safe (an atomic flag plus an eventfd write). The loop then
// stops accepting, stops reading (requests not yet admitted are dropped —
// their clients see EOF), answers every admitted query through the normal
// continuation path, flushes every connection's outbox, closes connections
// as their last byte leaves, and exits once no slot remains. wait() returns
// at that point and irgnn_served exits 0.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/codec.h"
#include "serve/server.h"
#include "support/arena.h"

namespace irgnn::net {

/// The one model name a NetServer answers for, besides the empty name.
inline constexpr std::string_view kModelName = "static";

struct NetServerConfig {
  /// Bind address (IPv4 dotted quad) and port; port 0 binds an ephemeral
  /// port, readable via NetServer::port() after start().
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int backlog = 128;

  /// Connections beyond this are accepted and immediately closed (counted
  /// in rejected_connections) so the kernel backlog cannot wedge.
  std::size_t max_connections = 4096;

  /// Per-connection cap on encoded-but-unsent response bytes; over it, new
  /// requests on the connection are answered Overloaded unadmitted (see
  /// the header comment).
  std::size_t max_write_buffer = 1u << 20;

  /// Inclusive bound on node feature indices accepted off the wire; < 0
  /// means graph::vocabulary_size() - 1, so hostile frames can never drive
  /// an embedding lookup out of bounds.
  std::int32_t max_feature = -1;

  /// epoll_wait tick in milliseconds: the upper bound on how stale the loop
  /// can be when woken only by time (drain checks, deferred flushes).
  int poll_ms = 20;
};

struct NetServerStats {
  std::uint64_t accepted = 0;  // connections admitted to a slot
  std::uint64_t closed = 0;    // fds closed (EOF, error, drain, protocol)
  std::uint64_t rejected_connections = 0;  // over max_connections
  std::uint64_t accept_failures = 0;       // accept() errors (injected incl.)
  std::uint64_t frames_in = 0;             // complete frames parsed
  std::uint64_t frames_out = 0;            // frames encoded for sending
  std::uint64_t requests = 0;              // well-formed kRequest frames
  std::uint64_t routed = 0;                // requests submitted to server_
  std::uint64_t model_not_found = 0;       // requests naming another model
  std::uint64_t responses = 0;             // responses delivered to outboxes
  std::uint64_t decode_errors = 0;    // framed payloads that failed decode
  std::uint64_t protocol_errors = 0;  // stream garbage (connection closed)
  std::uint64_t backpressure_shed = 0;  // Overloaded over a full write buffer
  std::uint64_t read_faults = 0;        // read errors that closed connections
  std::uint64_t open_slots = 0;  // live connection slots, zombies included —
                                 // MUST return to 0 after clients disconnect
                                 // and their in-flight queries resolve
  bool draining = false;
  bool finished = false;
};

class NetServer {
 public:
  /// Serves `server`'s model under kModelName; `server` must outlive the
  /// NetServer.
  NetServer(serve::InferenceServer& server, const NetServerConfig& config = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and parks the event loop on the shared ThreadPool.
  /// Fails (Status, never a throw) on socket errors, a bad host string, or
  /// a worker-less pool (the loop would run inline and never return).
  Status start();

  /// The bound port (after start); the ephemeral-port answer to port 0.
  std::uint16_t port() const { return bound_port_; }

  /// Begins graceful drain. Async-signal-safe: one atomic store and one
  /// eventfd write, so a SIGTERM handler may call it directly. Idempotent.
  void request_drain();

  /// Blocks until the event loop has fully drained and exited. Safe to call
  /// from several threads; returns immediately if the loop never started.
  void wait();

  /// request_drain() + wait(). Called by the destructor; idempotent.
  void shutdown();

  NetServerStats stats() const;

  const NetServerConfig& config() const { return config_; }

 private:
  /// Decoded-request storage that must outlive its future's resolution (the
  /// serve layer reads the graph during the forward). Pooled: released
  /// slots keep their node/edge capacity, so steady-state traffic decodes
  /// allocation-free.
  struct InflightQuery {
    graph::ProgramGraph graph;
  };

  struct Connection {
    // Loop-thread-only state.
    int fd = -1;
    bool open = false;
    bool want_write = false;    // EPOLLOUT armed
    FrameBytes in;              // unparsed inbound bytes
    std::size_t in_ofs = 0;     // parse cursor into `in`
    FrameBytes wbuf;            // spliced outbound bytes being written
    std::size_t wbuf_ofs = 0;

    // Shared state, guarded by NetServer::mutex_.
    FrameBytes outbox;          // responses deposited by continuations
    bool dirty = false;         // queued on dirty_ for splicing
    std::uint32_t pending = 0;  // submitted, unresolved queries
    std::uint64_t gen = 0;      // bumped when the slot is freed
    bool in_use = false;
  };

  void run_loop();
  void begin_drain();  // loop thread; first reaction to drain_requested_
  void do_accept();
  void handle_io(std::uint32_t slot, std::uint32_t events);
  void read_conn(std::uint32_t slot);
  void parse_frames(std::uint32_t slot);
  void handle_frame(std::uint32_t slot, const FrameHeader& header,
                    const std::uint8_t* payload);
  void handle_request(std::uint32_t slot, const std::uint8_t* payload,
                      std::size_t size);
  void handle_stats_request(std::uint32_t slot);
  /// Deposits an error Response for `tag` into the connection's outbox.
  void respond_error(std::uint32_t slot, std::uint64_t tag,
                     const Status& status, serve::Source source);
  /// Splices outboxes of dirty connections into their write buffers and
  /// flushes them; runs once per loop iteration and on EPOLLOUT.
  void splice_and_flush();
  void flush_conn(std::uint32_t slot);
  void update_epoll(std::uint32_t slot);
  void close_conn(std::uint32_t slot);
  /// During drain: closes `slot` once it is fully flushed with no pending
  /// queries. No-op outside drain.
  void maybe_close_drained(std::uint32_t slot);

  /// Continuation target: runs on whatever thread resolves the future.
  void complete(std::uint32_t slot, std::uint64_t gen, std::uint64_t tag,
                InflightQuery* query, const serve::Response& response);

  std::uint32_t alloc_slot();  // loop thread
  void free_slot_locked(std::uint32_t slot);
  InflightQuery* acquire_query();
  void release_query_locked(InflightQuery* query);
  void wake();
  /// Encoded-but-unsent bytes for the connection (wbuf + outbox).
  std::size_t outstanding_bytes(const Connection& conn);

  serve::InferenceServer& server_;
  NetServerConfig config_;
  DecodeLimits limits_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t bound_port_ = 0;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> finished_{false};
  bool started_ = false;

  std::future<void> loop_future_;
  std::mutex wait_mutex_;  // serializes wait()/shutdown() on loop_future_

  mutable std::mutex mutex_;  // connections' shared state, stats, pools
  /// Signaled when total_pending_ hits zero; the loop's teardown waits on it
  /// so the server can never be destroyed under an unresolved continuation.
  std::condition_variable drained_cv_;
  std::uint64_t total_pending_ = 0;  // unresolved futures across all slots
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> dirty_;        // slots with non-empty outboxes
  std::vector<std::uint32_t> dirty_local_;  // loop-side swap target
  std::vector<std::unique_ptr<InflightQuery>> query_store_;
  std::vector<InflightQuery*> free_queries_;

  // Stats, guarded by mutex_.
  std::uint64_t accepted_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t rejected_connections_ = 0;
  std::uint64_t accept_failures_ = 0;
  std::uint64_t frames_in_ = 0;
  std::uint64_t frames_out_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t routed_ = 0;
  std::uint64_t model_not_found_ = 0;
  std::uint64_t responses_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::uint64_t protocol_errors_ = 0;
  std::uint64_t backpressure_shed_ = 0;
  std::uint64_t read_faults_ = 0;
  std::uint64_t open_slots_ = 0;
};

/// Fills a WireStats from the InferenceServer's totals plus the net layer's
/// own counters — what a kStatsRequest answers with.
WireStats gather_wire_stats(const serve::ServerStats& server,
                            const NetServerStats& net);

}  // namespace irgnn::net
