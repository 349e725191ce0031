// serve-hot and serve-miss: irgnn_served in its own process, driven over
// loopback TCP by an open-loop generator in this one.
//
// The generator uses two connections. Each has one sender on a fixed
// schedule carrying half the rate and one receiver; the main thread is the
// first sender, so the generator runs four threads on four connections'
// worth of sockets at most (two for traffic, one at a time for stats and
// warm-up). Every request is timed from when it was due, so a stalled
// sender charges its wait to the requests behind it; how late the senders
// ran is reported as gen.late_us.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <ctime>
#include <memory>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "net/codec.h"
#include "serve/request.h"
#include "support/rng.h"

namespace irgnn_bench {

using namespace irgnn;

gnn::ModelConfig served_model_config() {
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 13;
  cfg.hidden_dim = 64;
  cfg.num_layers = 3;
  cfg.seed = 24237;
  cfg.num_threads = 1;
  return cfg;
}

namespace {

struct ServeWorkload {
  const char* name;
  double rates[2];      // requests/s in phase 1 and phase 2
  const char* cache;    // --cache, or nullptr for the daemon default
  bool zipf;            // Zipf(s=1) draws, else uniform
};

// serve-hot: every graph is warm and the cache holds them all, so answers
// are hits and the work is net, codec, fingerprint and lookup. serve-miss: a
// 64-entry cache over ~530 graphs drawn uniformly, so most queries miss and
// admission, batching and the GNN forward do the work. Forwards of one model
// run one at a time; at 2000/s that lane is under half busy, which leaves
// room for a slowed host without the queue running away (at 4000/s it was
// ~80% busy and p50 swung between 1.4 and 5.5 ms from run to run).
constexpr ServeWorkload kWorkloads[] = {
    {"serve-hot", {10000, 30000}, nullptr, true},
    {"serve-miss", {1000, 2000}, "64", false},
};

constexpr double kWindowSeconds = 1.5;  // target length of one phase window
constexpr int kWarmWindow = 32;      // warm-up requests in flight
constexpr double kLeadUs = 50e3;     // between opening connections and the
                                     // first due time
constexpr double kGraceUs = 5e6;     // wait for answers after the last due time
constexpr int kDaemonTimeoutMs = 20000;

/// A running irgnn_served, started with --port 0; the port comes from its
/// "listening on host:port" line.
class Daemon {
 public:
  bool start(const std::vector<std::string>& argv, std::string* error) {
    if (!child_.start(argv, error)) return false;
    std::string line;
    while (child_.read_line(&line, kDaemonTimeoutMs)) {
      const std::size_t at = line.find("listening on ");
      const std::size_t colon =
          at == std::string::npos ? at : line.find(':', at);
      if (colon == std::string::npos) continue;
      port_ = static_cast<std::uint16_t>(
          std::strtoul(line.c_str() + colon + 1, nullptr, 10));
      if (port_ != 0) return true;
    }
    *error = "irgnn_served did not report a listening port";
    return false;
  }

  /// SIGTERM, then the drain must end with "open slots 0" and exit code 0.
  bool drain(std::string* error) {
    child_.signal(SIGTERM);
    std::string line;
    bool slots_freed = false;
    while (child_.read_line(&line, kDaemonTimeoutMs)) {
      const std::string tail = "open slots 0";
      if (line.find("drained:") != std::string::npos &&
          line.size() >= tail.size() &&
          line.compare(line.size() - tail.size(), tail.size(), tail) == 0)
        slots_freed = true;
    }
    int code = -1;
    const bool exited = child_.wait(kDaemonTimeoutMs, &code);
    if (exited && code == 0 && slots_freed) return true;
    *error = !exited ? "did not exit after SIGTERM (killed)"
                     : "exit code " + std::to_string(code) +
                           (slots_freed ? "" : ", open slots not 0");
    return false;
  }

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return child_.pid(); }

 private:
  Child child_;
  std::uint16_t port_ = 0;
};

std::vector<std::string> daemon_argv(const ServeWorkload& w) {
  const gnn::ModelConfig cfg = served_model_config();
  std::vector<std::string> argv = {
      served_path(), "--port", "0", "--threads", "2",
      "--hidden", std::to_string(cfg.hidden_dim),
      "--layers", std::to_string(cfg.num_layers),
      "--labels", std::to_string(cfg.num_labels),
      "--model-seed", std::to_string(cfg.seed)};
  if (w.cache != nullptr) {
    argv.push_back("--cache");
    argv.push_back(w.cache);
  }
  return argv;
}

/// Answers every corpus graph once, at most kWarmWindow in flight so the
/// daemon's admission queue never overflows, and checks each label.
bool warm(std::uint16_t port, const Corpus& corpus,
          const std::vector<int>& expected, RunResult& result) {
  net::NetClient client;
  if (!client.connect("127.0.0.1", port).ok()) {
    result.check("labels", false, "warm-up connect failed");
    return false;
  }
  const std::size_t n = corpus.graphs.size();
  std::size_t sent = 0, wrong = 0;
  for (std::size_t received = 0; received < n; ++received) {
    while (sent < n && sent < received + kWarmWindow) {
      if (!client.send(serve::Request(corpus.graphs[sent]), sent).ok()) {
        result.check("labels", false, "warm-up send failed");
        return false;
      }
      ++sent;
    }
    auto answer = client.recv();
    if (!answer.ok()) {
      result.check("labels", false, "warm-up connection lost");
      return false;
    }
    const std::uint64_t tag = answer->tag;
    if (tag >= n || !answer->response.ok() ||
        answer->response.label != expected[tag])
      ++wrong;
  }
  result.check("labels", wrong == 0,
               std::to_string(wrong) + " warm-up answers not Ok or differing "
                                       "from the local model");
  return wrong == 0;
}

bool wire_stats(std::uint16_t port, net::WireStats* out) {
  net::NetClient client;
  return client.connect("127.0.0.1", port).ok() && client.get_stats(out).ok();
}

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void sleep_until_us(double due_us) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due_us / 1e6);
  ts.tv_nsec = static_cast<long>((due_us - static_cast<double>(ts.tv_sec) * 1e6) * 1e3);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// One connection's schedule and what came back, indexed by request (the
/// request's index is its wire tag). The sender writes send_us, the receiver
/// the rest; both are joined before anything is read.
struct ConnLog {
  int fd = -1;
  std::vector<std::uint32_t> graph;
  std::vector<double> due_us, send_us, recv_us;
  std::vector<std::int32_t> label, queue_us, compute_us;
  std::vector<std::uint8_t> status, source, seen;
  bool send_failed = false;
  std::string receive_error;

  void resize(std::size_t n) {
    graph.assign(n, 0);
    due_us.assign(n, 0);
    send_us.assign(n, 0);
    recv_us.assign(n, 0);
    label.assign(n, -1);
    queue_us.assign(n, 0);
    compute_us.assign(n, 0);
    status.assign(n, 0);
    source.assign(n, 0);
    seen.assign(n, 0);
  }
};

void send_loop(ConnLog& log, const Corpus& corpus) {
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake on time, not up to 50 us late
  net::FrameBytes frame;
  for (std::size_t i = 0; i < log.due_us.size(); ++i) {
    if (log.due_us[i] > now_us()) sleep_until_us(log.due_us[i]);
    log.send_us[i] = now_us();
    frame.clear();
    net::encode_request_into(i, serve::Request(corpus.graphs[log.graph[i]]),
                             frame);
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n =
          ::send(log.fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        log.send_failed = true;
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }
}

void receive_loop(ConnLog& log, double deadline_us) {
  const std::size_t n = log.due_us.size();
  std::vector<std::uint8_t> in(1 << 16);
  std::size_t have = 0, received = 0;
  while (received < n) {
    const double left_ms = (deadline_us - now_us()) / 1e3;
    if (left_ms <= 0) return;  // unanswered requests count as failed
    pollfd pfd{log.fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::min(left_ms, 100.0)) + 1);
    if (ready == 0 || (ready < 0 && errno == EINTR)) continue;
    const ssize_t got = ready < 0 ? -1 : ::recv(log.fd, in.data() + have, in.size() - have, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      log.receive_error = "connection closed by the daemon";
      return;
    }
    const double t = now_us();
    have += static_cast<std::size_t>(got);
    std::size_t off = 0;
    while (have - off >= net::kHeaderBytes) {
      net::FrameHeader header;
      if (!net::decode_header(in.data() + off, have - off, &header).ok()) {
        log.receive_error = "malformed frame header";
        return;
      }
      const std::size_t frame = net::kHeaderBytes + header.payload_bytes;
      if (have - off < frame) {
        if (frame > in.size()) in.resize(frame);
        break;
      }
      net::DecodedResponse answer;
      if (header.type != net::FrameType::kResponse ||
          !net::decode_response(in.data() + off + net::kHeaderBytes,
                                header.payload_bytes, &answer)
               .ok() ||
          answer.tag >= n || log.seen[answer.tag]) {
        log.receive_error = "malformed, unknown or repeated response";
        return;
      }
      const std::size_t i = answer.tag;
      log.seen[i] = 1;
      log.recv_us[i] = t;
      log.status[i] = net::wire_status(answer.response.status);
      log.label[i] = answer.response.label;
      log.queue_us[i] = static_cast<std::int32_t>(answer.response.queue_us);
      log.compute_us[i] = static_cast<std::int32_t>(answer.response.compute_us);
      log.source[i] = static_cast<std::uint8_t>(answer.response.source);
      ++received;
      off += frame;
    }
    std::memmove(in.data(), in.data() + off, have - off);
    have -= off;
  }
}

/// Draws graph indices: Zipf(s=1) over a seeded ranking of the graphs, or
/// uniform.
class Sampler {
 public:
  Sampler(std::size_t graphs, bool zipf, std::uint64_t seed)
      : graphs_(graphs), zipf_(zipf), order_(graphs) {
    for (std::size_t i = 0; i < graphs; ++i) order_[i] = static_cast<std::uint32_t>(i);
    Rng(seed).shuffle(order_);
    double total = 0;
    for (std::size_t k = 1; k <= graphs; ++k) total += 1.0 / static_cast<double>(k);
    double sum = 0;
    for (std::size_t k = 1; k <= graphs; ++k) {
      sum += 1.0 / static_cast<double>(k) / total;
      cdf_.push_back(sum);
    }
  }

  std::uint32_t draw(Rng& rng) const {
    if (!zipf_) return static_cast<std::uint32_t>(rng.next_below(graphs_));
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform()) - cdf_.begin());
    return order_[std::min(rank, graphs_ - 1)];
  }

 private:
  std::size_t graphs_;
  bool zipf_;
  std::vector<std::uint32_t> order_;
  std::vector<double> cdf_;
};

struct PhaseStats {
  std::vector<double> latency_us;  // due -> answer; unanswered: due -> give-up
  std::vector<double> wire_us, late_us, queue_us, compute_us;
  std::uint64_t attempted = 0, ok = 0, wrong = 0;
  double daemon_cpu_us = 0;
  std::uint64_t ctx_switches = 0;
};

/// One window of one phase: both connections for `seconds` at `rate`.
PhaseStats run_phase(int round, int phase, const Daemon& daemon,
                     const Corpus& corpus, const std::vector<int>& expected,
                     const Sampler& sampler, double rate, double seconds,
                     std::uint64_t seed, Trace& trace, RunResult& result) {
  PhaseStats stats;
  const std::size_t per_conn =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate / 2 * seconds));
  const double period_us = 2e6 / rate;
  ConnLog logs[2];
  for (int c = 0; c < 2; ++c) {
    logs[c].resize(per_conn);
    logs[c].fd = connect_raw(daemon.port());
    Rng rng(hash_combine64(seed, static_cast<std::uint64_t>(64 * round + 16 * phase + c)));
    for (std::uint32_t& g : logs[c].graph) g = sampler.draw(rng);
  }
  if (logs[0].fd < 0 || logs[1].fd < 0) {
    result.failures.push_back("phase" + std::to_string(phase) +
                              ": connect failed");
    for (ConnLog& log : logs)
      if (log.fd >= 0) ::close(log.fd);
    return stats;
  }

  const double t0 = now_us() + kLeadUs;
  for (int c = 0; c < 2; ++c)
    for (std::size_t i = 0; i < per_conn; ++i)
      logs[c].due_us[i] = t0 + (static_cast<double>(i) + 0.5 * c) * period_us;
  const double deadline = t0 + seconds * 1e6 + kGraceUs;

  double cpu0 = 0, cpu1 = 0;
  proc_cpu_us(daemon.pid(), &cpu0);
  const std::uint64_t ctx0 = proc_ctx_switches(daemon.pid());
  {
    std::thread receive0(receive_loop, std::ref(logs[0]), deadline);
    std::thread receive1(receive_loop, std::ref(logs[1]), deadline);
    std::thread send1(send_loop, std::ref(logs[1]), std::cref(corpus));
    send_loop(logs[0], corpus);
    send1.join();
    receive0.join();
    receive1.join();
  }
  const double t1 = now_us();
  proc_cpu_us(daemon.pid(), &cpu1);
  stats.daemon_cpu_us = cpu1 - cpu0;
  stats.ctx_switches = proc_ctx_switches(daemon.pid()) - ctx0;
  trace.add("phase" + std::to_string(phase), "phase", t0, t1);

  for (int c = 0; c < 2; ++c) {
    ConnLog& log = logs[c];
    ::close(log.fd);
    if (log.send_failed || !log.receive_error.empty())
      result.failures.push_back("phase" + std::to_string(phase) + " conn " +
                                std::to_string(c) + ": " +
                                (log.send_failed ? "send failed"
                                                 : log.receive_error));
    for (std::size_t i = 0; i < per_conn; ++i) {
      ++stats.attempted;
      stats.late_us.push_back(log.send_us[i] - log.due_us[i]);
      if (!log.seen[i] || log.status[i] != 0) {
        stats.latency_us.push_back(deadline - log.due_us[i]);
        continue;
      }
      ++stats.ok;
      if (log.label[i] != expected[log.graph[i]]) ++stats.wrong;
      stats.latency_us.push_back(log.recv_us[i] - log.due_us[i]);
      stats.wire_us.push_back(log.recv_us[i] - log.send_us[i] -
                              log.queue_us[i] - log.compute_us[i]);
      stats.queue_us.push_back(log.queue_us[i]);
      if (log.source[i] == static_cast<std::uint8_t>(serve::Source::Batch))
        stats.compute_us.push_back(log.compute_us[i]);
      if (trace.enabled())
        trace.add_request({(static_cast<std::uint64_t>(round) << 48) |
                               (static_cast<std::uint64_t>(phase) << 40) |
                               (static_cast<std::uint64_t>(c) << 32) | i,
                           log.send_us[i], log.recv_us[i], log.queue_us[i],
                           log.compute_us[i], log.source[i],
                           static_cast<std::uint8_t>(phase),
                           static_cast<std::uint8_t>(c)});
    }
  }
  result.check("labels", stats.wrong == 0,
               "phase" + std::to_string(phase) + ": " +
                   std::to_string(stats.wrong) +
                   " answers differ from the local model");
  return stats;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One set-up: spawn -> listening -> every graph answered once. Appends its
/// seconds to `setup_s`; nullptr when the daemon failed to come up.
std::unique_ptr<Daemon> set_up(const std::vector<std::string>& argv,
                               const Corpus& corpus,
                               const std::vector<int>& expected, Trace& trace,
                               RunResult& result, std::vector<double>* setup_s) {
  auto daemon = std::make_unique<Daemon>();
  const double t0 = now_us();
  std::string error;
  if (!daemon->start(argv, &error)) {
    result.failures.push_back("irgnn_served: " + error);
    return nullptr;
  }
  const double t_listen = now_us();
  if (!warm(daemon->port(), corpus, expected, result)) return nullptr;
  const double t1 = now_us();
  setup_s->push_back((t1 - t0) / 1e6);
  trace.add("setup", "setup", t0, t1);
  trace.add("spawn", "setup", t0, t_listen);
  trace.add("warm", "setup", t_listen, t1);
  return daemon;
}

void drain(Daemon& daemon, Trace& trace, RunResult& result) {
  std::string error;
  const double t0 = now_us();
  result.check("drain", daemon.drain(&error), error);
  trace.add("drain", "drain", t0, now_us());
}

}  // namespace

void run_serve(const RunConfig& config, const Corpus& corpus, Trace& trace,
               RunResult& result) {
  const ServeWorkload* workload = nullptr;
  for (const ServeWorkload& w : kWorkloads)
    if (config.workload == w.name) workload = &w;
  if (workload == nullptr) {
    result.failures.push_back("unknown serve workload " + config.workload);
    return;
  }

  // The answers every label is checked against.
  std::vector<int> expected;
  {
    const gnn::StaticModel model(served_model_config());
    std::vector<const graph::ProgramGraph*> ptrs;
    for (const auto& g : corpus.graphs) ptrs.push_back(&g);
    model.predict_into(ptrs, expected);
  }

  const std::vector<std::string> argv = daemon_argv(*workload);
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon =
      set_up(argv, corpus, expected, trace, result, &setup_s);
  if (daemon == nullptr) return;

  net::WireStats before, after;
  if (!wire_stats(daemon->port(), &before)) {
    result.failures.push_back("stats request failed");
    return;
  }
  // Rounds of (phase 1 window, phase 2 window, one more set-up of a second
  // daemon while the measured one idles). Each phase's end-to-end figures
  // are those of its best window: contention from other tenants of a shared
  // host only ever slows a window, and comes and goes over seconds, so the
  // best of many short windows is the least disturbed measurement.
  const int rounds = std::max(
      1, static_cast<int>(std::lround(config.seconds / (2 * kWindowSeconds))));
  const double window_s = config.seconds / (2.0 * rounds);
  const Sampler sampler(corpus.graphs.size(), workload->zipf,
                        hash_combine64(config.seed, 0x5A1F));
  std::vector<PhaseStats> windows[2];
  for (int r = 0; r < rounds; ++r) {
    for (int p = 0; p < 2; ++p)
      windows[p].push_back(run_phase(r, p + 1, *daemon, corpus, expected,
                                     sampler, workload->rates[p], window_s,
                                     config.seed, trace, result));
    std::unique_ptr<Daemon> probe =
        set_up(argv, corpus, expected, trace, result, &setup_s);
    if (probe == nullptr) return;
    drain(*probe, trace, result);
  }
  if (!wire_stats(daemon->port(), &after)) {
    result.failures.push_back("stats request failed");
    return;
  }
  result.check("conservation",
               after.cache_hits + after.cache_misses + after.coalesced ==
                       after.queries &&
                   after.net_decode_errors == 0 &&
                   after.net_protocol_errors == 0,
               "hits " + std::to_string(after.cache_hits) + " + misses " +
                   std::to_string(after.cache_misses) + " + coalesced " +
                   std::to_string(after.coalesced) + " != queries " +
                   std::to_string(after.queries) + ", or decode errors");
  const double peak_rss_mb = proc_peak_rss_mb(daemon->pid());
  drain(*daemon, trace, result);

  auto& m = result.metrics;
  m["setup_s"] = median(setup_s);
  m["peak_rss_mb"] = peak_rss_mb;
  std::vector<double> wire, late, queue, compute;
  double ok = 0, ctx = 0;
  for (int p = 0; p < 2; ++p) {
    std::vector<double> p50, cpu, latency;
    for (PhaseStats& s : windows[p]) {
      p50.push_back(quantile(s.latency_us, 0.50) / 1e3);
      cpu.push_back(ratio(s.daemon_cpu_us, static_cast<double>(s.ok)));
      result.attempted += s.attempted;
      result.failed += s.attempted - s.ok;
      ok += static_cast<double>(s.ok);
      ctx += static_cast<double>(s.ctx_switches);
      latency.insert(latency.end(), s.latency_us.begin(), s.latency_us.end());
      wire.insert(wire.end(), s.wire_us.begin(), s.wire_us.end());
      late.insert(late.end(), s.late_us.begin(), s.late_us.end());
      queue.insert(queue.end(), s.queue_us.begin(), s.queue_us.end());
      compute.insert(compute.end(), s.compute_us.begin(), s.compute_us.end());
    }
    const std::string prefix = "phase" + std::to_string(p + 1);
    m[prefix + ".p50_ms"] = quantile(p50, 0);
    m[prefix + ".cpu_us_per_op"] = quantile(cpu, 0);
    m[prefix + ".p99_ms"] = quantile(latency, 0.99) / 1e3;
  }
  const auto delta = [&](std::uint64_t net::WireStats::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  const double queries = delta(&net::WireStats::queries);
  m["net.wire_us.p50"] = quantile(wire, 0.50);
  m["net.backpressure_shed"] = delta(&net::WireStats::net_backpressure_shed);
  m["serve.queue_us.p50"] = quantile(queue, 0.50);
  m["serve.queue_us.p99"] = quantile(queue, 0.99);
  m["serve.hit_rate"] = ratio(delta(&net::WireStats::cache_hits), queries);
  m["serve.coalesced_frac"] = ratio(delta(&net::WireStats::coalesced), queries);
  m["serve.forwards_per_query"] = ratio(delta(&net::WireStats::forwards), queries);
  m["serve.batch_mean"] = ratio(delta(&net::WireStats::forwards),
                                delta(&net::WireStats::batches));
  m["serve.shed_frac"] =
      ratio(delta(&net::WireStats::shed) + delta(&net::WireStats::rejected) +
                delta(&net::WireStats::deadline_exceeded),
            queries);
  m["serve.ctx_switches_per_query"] = ratio(ctx, ok);
  m["gnn.compute_us.p50"] = quantile(compute, 0.50);
  m["gen.late_us.p99"] = quantile(late, 0.99);
  m["gen.late_us.max"] = quantile(late, 1);
}

}  // namespace irgnn_bench
