// irgnn_served: the out-of-process serving daemon.
//
// Builds a deterministic StaticModel from --hidden/--layers/--labels/
// --model-seed (a client rebuilds the identical model from the same values
// instead of receiving weights), serves it through one
// serve::InferenceServer under the name "static" (net::kModelName), and
// speaks the net/codec wire protocol over TCP through net::NetServer until
// SIGTERM/SIGINT, then drains gracefully: stop
// accepting, answer every admitted query, flush every connection, exit 0.
// The benchmark (benchmark/src/serve.cpp) gates that exit code and the
// "open slots 0" at the end of the drained line.
//
//   ./irgnn_served --port 9157 --threads 2
//   ./irgnn_served --port 0          (ephemeral; the bound port is printed)
//   kill -TERM <pid>                 (graceful drain)
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "net/server.h"
#include "support/argparse.h"
#include "tensor/tensor.h"

using namespace irgnn;

namespace {

net::NetServer* g_server = nullptr;

// Async-signal-safe by construction: request_drain is one atomic store and
// one eventfd write.
void handle_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("irgnn_served",
                   "TCP serving daemon for the wire protocol (net/codec): "
                   "deterministic model, admission control, graceful drain "
                   "on SIGTERM");
  parser.add("hidden", "64", "served model hidden dimension")
      .add("layers", "3", "served model RGCN layers")
      .add("labels", "13", "served model label count")
      .add("model-seed", "24237",
           "weight seed; a client rebuilds the served model from the same "
           "four model flags (deterministic construction replaces weight "
           "shipping)")
      .add("max-queue", "256",
           "admission bound: a full queue refuses new queries Overloaded "
           "(0: unbounded)")
      .add("max-batch", "64", "largest micro-batch")
      .add("cache", "4096", "prediction cache entries (0 disables)")
      .add("write-buffer", "1048576",
           "per-connection cap on unsent response bytes; over it, new "
           "requests are answered Overloaded")
      .add("threads", "0",
           "max worker threads (0: all cores; answers are identical for "
           "every value)")
      .add("host", "127.0.0.1", "IPv4 address to bind")
      .add("port", "9157", "TCP port; 0 binds an ephemeral port")
      .add("connections", "4096", "accepted-connection cap");
  if (!parser.parse(argc, argv)) return 1;

  // Range-check every numeric flag before any is narrowed to its field's
  // type: an out-of-range value is a one-line error and exit 1, never a
  // wrapped port or an aborting model constructor.
  constexpr std::int64_t kInt = std::numeric_limits<int>::max();
  constexpr std::int64_t kAny = std::numeric_limits<std::int64_t>::max();
  const struct {
    const char* name;
    std::int64_t lo, hi;
  } kRanges[] = {{"hidden", 1, kInt},      {"layers", 1, kInt},
                 {"labels", 1, kInt},      {"max-batch", 1, kInt},
                 {"connections", 1, kAny}, {"cache", 0, kAny},
                 {"max-queue", 0, kAny},   {"write-buffer", 0, kAny},
                 {"threads", 0, kInt},     {"port", 0, 65535}};
  for (const auto& range : kRanges) {
    const std::int64_t value = parser.get_int(range.name);
    if (value >= range.lo && value <= range.hi) continue;
    if (range.hi == kAny)
      std::fprintf(stderr, "irgnn_served: --%s must be >= %lld (got %s)\n",
                   range.name, static_cast<long long>(range.lo),
                   parser.get_string(range.name).c_str());
    else
      std::fprintf(stderr,
                   "irgnn_served: --%s must be in [%lld, %lld] (got %s)\n",
                   range.name, static_cast<long long>(range.lo),
                   static_cast<long long>(range.hi),
                   parser.get_string(range.name).c_str());
    return 1;
  }

  const int threads = static_cast<int>(parser.get_int("threads"));
  tensor::set_kernel_parallelism(threads);

  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = static_cast<int>(parser.get_int("labels"));
  cfg.hidden_dim = static_cast<int>(parser.get_int("hidden"));
  cfg.num_layers = static_cast<int>(parser.get_int("layers"));
  cfg.seed = static_cast<std::uint64_t>(parser.get_int("model-seed"));
  cfg.num_threads = threads;
  auto model = std::make_shared<const gnn::StaticModel>(cfg);

  serve::ServerConfig server_config;
  server_config.max_queue =
      static_cast<std::size_t>(parser.get_int("max-queue"));
  server_config.max_batch = static_cast<int>(parser.get_int("max-batch"));
  server_config.cache_capacity =
      static_cast<std::size_t>(parser.get_int("cache"));
  serve::InferenceServer inference(model, server_config);

  net::NetServerConfig net_config;
  net_config.host = parser.get_string("host");
  net_config.port = static_cast<std::uint16_t>(parser.get_int("port"));
  net_config.max_connections =
      static_cast<std::size_t>(parser.get_int("connections"));
  net_config.max_write_buffer =
      static_cast<std::size_t>(parser.get_int("write-buffer"));
  net::NetServer server(inference, net_config);

  support::Status status = server.start();
  if (!status.ok()) {
    std::fprintf(stderr, "irgnn_served: start failed: %s (%s)\n",
                 status.code_name(), status.message());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("irgnn_served listening on %s:%u (model static: hidden=%d "
              "layers=%d labels=%d seed=%llu, max_queue=%zu, threads=%d)\n",
              net_config.host.c_str(), static_cast<unsigned>(server.port()),
              cfg.hidden_dim, cfg.num_layers, cfg.num_labels,
              static_cast<unsigned long long>(cfg.seed),
              server_config.max_queue, threads);
  std::fflush(stdout);

  server.wait();  // returns when a signal triggered the drain and it finished

  const net::NetServerStats net_stats = server.stats();
  const serve::ServerStats served = inference.stats();
  inference.shutdown();
  std::printf("irgnn_served drained: %llu connections served, %llu requests, "
              "%llu responses, %llu queries (%llu hits, %llu misses, %llu "
              "coalesced), open slots %llu\n",
              static_cast<unsigned long long>(net_stats.accepted),
              static_cast<unsigned long long>(net_stats.requests),
              static_cast<unsigned long long>(net_stats.responses),
              static_cast<unsigned long long>(served.queries),
              static_cast<unsigned long long>(served.cache.hits),
              static_cast<unsigned long long>(served.cache.misses),
              static_cast<unsigned long long>(served.coalesced),
              static_cast<unsigned long long>(net_stats.open_slots));
  // A leaked slot after a full drain is a bug worth a nonzero exit.
  return net_stats.open_slots == 0 ? 0 : 2;
}
