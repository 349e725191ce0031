// Per-layer replays: the calls a served query makes, timed one pass at a
// time on the workload's own graphs, in this process and on one thread.
//
//   net.encode_us / net.decode_us   wire codec, per request frame
//   graph.fingerprint_us            the cache key, per graph
//   gnn.predict_us.b1 / .b64        StaticModel::predict_into, per graph, at
//                                   one graph and 64 graphs per call
//   tensor.gemm_gflops              tensor::matmul at the shape of one
//                                   hidden-layer product of a 64-graph batch
#include <algorithm>

#include "bench.h"
#include "graph/fingerprint.h"
#include "net/codec.h"
#include "serve/request.h"
#include "tensor/tensor.h"

namespace irgnn_bench {

using namespace irgnn;

namespace {

/// Runs `pass` at least `min_passes` times and for at least `min_seconds`;
/// each pass is one span. Returns the median seconds per pass.
template <typename Pass>
double time_passes(Trace& trace, const char* name, int min_passes,
                   double min_seconds, Pass&& pass) {
  std::vector<double> seconds;
  const double start = now_us();
  while (static_cast<int>(seconds.size()) < min_passes ||
         (now_us() - start < min_seconds * 1e6 && seconds.size() < 10000)) {
    const double t0 = now_us();
    pass();
    const double t1 = now_us();
    seconds.push_back((t1 - t0) / 1e6);
    trace.add(name, "replay", t0, t1);
  }
  return median(seconds);
}

}  // namespace

void run_replays(const std::vector<graph::ProgramGraph>& graphs, Trace& trace,
                 RunResult& result) {
  auto& m = result.metrics;
  const double n = static_cast<double>(graphs.size());
  double nodes = 0, edges = 0, bytes = 0;
  std::vector<net::FrameBytes> frames(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    nodes += static_cast<double>(graphs[i].num_nodes());
    edges += static_cast<double>(graphs[i].num_edges());
    net::encode_request_into(i, serve::Request(graphs[i]), frames[i]);
    bytes += static_cast<double>(frames[i].size());
  }
  m["graph.nodes"] = nodes / n;
  m["graph.edges"] = edges / n;
  m["net.request_bytes"] = bytes / n;

  net::FrameBytes scratch;
  m["net.encode_us"] = time_passes(trace, "encode", 5, 0.2, [&] {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      scratch.clear();
      net::encode_request_into(i, serve::Request(graphs[i]), scratch);
    }
  }) / n * 1e6;

  graph::ProgramGraph decoded;
  std::size_t decode_errors = 0;
  m["net.decode_us"] = time_passes(trace, "decode", 5, 0.2, [&] {
    for (const net::FrameBytes& frame : frames) {
      net::FrameHeader header;
      net::DecodedRequest request;
      if (!net::decode_header(frame.data(), frame.size(), &header).ok() ||
          !net::decode_request(frame.data() + net::kHeaderBytes,
                               header.payload_bytes, &request, &decoded)
               .ok())
        ++decode_errors;
    }
  }) / n * 1e6;
  if (decode_errors != 0)
    result.failures.push_back("codec replay: " + std::to_string(decode_errors) +
                              " frames failed to decode");

  volatile std::uint64_t sink = 0;
  m["graph.fingerprint_us"] = time_passes(trace, "fingerprint", 5, 0.2, [&] {
    for (const auto& g : graphs) sink = sink ^ graph::fingerprint(g);
  }) / n * 1e6;

  const gnn::StaticModel model(served_model_config());
  std::vector<const graph::ProgramGraph*> batch;
  std::vector<int> labels;
  for (const std::size_t size : {std::size_t{1}, std::size_t{64}}) {
    const char* name = size == 1 ? "predict_b1" : "predict_b64";
    const double pass_s = time_passes(trace, name, 3, 0.0, [&] {
      for (std::size_t first = 0; first < graphs.size(); first += size) {
        batch.clear();
        for (std::size_t i = first; i < std::min(graphs.size(), first + size); ++i)
          batch.push_back(&graphs[i]);
        model.predict_into(batch, labels);
      }
    });
    m[size == 1 ? "gnn.predict_us.b1" : "gnn.predict_us.b64"] = pass_s / n * 1e6;
  }

  // One RGCN layer's dense product for a 64-graph batch: [nodes x hidden] x
  // [hidden x hidden]; FLOPs counted from the shape.
  const int hidden = served_model_config().hidden_dim;
  const int rows = static_cast<int>(64 * nodes / n);
  tensor::InferenceGuard no_tape;
  Rng rng(0x6E33);
  const tensor::Tensor a = tensor::Tensor::xavier({rows, hidden}, rng);
  const tensor::Tensor b = tensor::Tensor::xavier({hidden, hidden}, rng);
  const double call_s = time_passes(trace, "gemm", 20, 0.2,
                                    [&] { tensor::matmul(a, b); });
  m["tensor.gemm_gflops"] =
      2.0 * rows * hidden * hidden / call_s / 1e9;
}

}  // namespace irgnn_bench
