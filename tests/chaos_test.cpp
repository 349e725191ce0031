// Seeded chaos harness for the failure-containment layer.
//
// Two kinds of test live here:
//
//   Deterministic scripted runs (one driver thread): the failpoint schedule
//   is a pure function of the seed, no serving decision reads a clock, and
//   the ENTIRE final stats snapshot — queries, forwards, failures, cache
//   counters — must reproduce bit-for-bit across runs and across model
//   thread counts.
//
//   Concurrent chaos (free-running clients against one InferenceServer,
//   faults firing mid-flight): interleavings vary, so these assert
//   invariants instead of exact counts — every Ok answer bit-identical to a
//   serial predict of the served model and reporting kModelVersion, hits +
//   misses + coalesced == queries, every future resolved exactly once by
//   shutdown.
//
// The binary builds and passes in BOTH library configurations: with
// IRGNN_FAILPOINTS compiled out, fault-dependent tests GTEST_SKIP and the
// healthy-mode harness still runs every structural invariant.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/server.h"
#include "support/failpoint.h"
#include "support/rng.h"
#include "workloads/suite.h"

namespace irgnn {
namespace {

namespace failpoints = support::failpoints;

/// A dozen structurally distinct suite regions, built once (same picks as
/// serve_test, so expectations carry over mentally between the suites).
const std::vector<graph::ProgramGraph>& test_graphs() {
  static const std::vector<graph::ProgramGraph> owned = [] {
    std::vector<graph::ProgramGraph> graphs;
    for (int r : {0, 3, 7, 12, 18, 23, 29, 34, 40, 45, 51, 55}) {
      auto module =
          workloads::build_region_module(workloads::benchmark_suite()[r]);
      graphs.push_back(graph::build_graph(*module));
    }
    return graphs;
  }();
  return owned;
}

gnn::ModelConfig small_config(std::uint64_t seed, int num_threads = 1) {
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 5;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.seed = seed;
  cfg.num_threads = num_threads;
  return cfg;
}

std::vector<int> serial_predict(const gnn::StaticModel& model) {
  std::vector<const graph::ProgramGraph*> ptrs;
  for (const auto& g : test_graphs()) ptrs.push_back(&g);
  return model.predict(ptrs);
}

/// Every test disarms every failpoint on both ends: an armed site leaking
/// across tests is the classic cross-test heisenbug.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoints::disable_all(); }
  void TearDown() override { failpoints::disable_all(); }
};

// --- Failpoint schedule determinism -----------------------------------------

/// A local failpoint site: returns 1 when the error action ran.
int hit_unit_site() {
  int fired = 0;
  IRGNN_FAILPOINT("chaos.unit", fired = 1);
  return fired;
}

TEST_F(ChaosTest, FailpointScheduleIsAPureFunctionOfTheSeed) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  auto run = [](std::uint64_t seed) {
    failpoints::set_seed(seed);
    failpoints::FailpointSpec spec;
    spec.probability = 0.4;
    failpoints::configure("chaos.unit", spec);
    std::vector<int> pattern;
    for (int i = 0; i < 200; ++i) pattern.push_back(hit_unit_site());
    return pattern;
  };
  const std::vector<int> a = run(0xC4A05);
  const std::uint64_t fires_a = failpoints::fires("chaos.unit");
  const std::vector<int> b = run(0xC4A05);
  EXPECT_EQ(a, b) << "same seed must reproduce the same fault schedule";
  EXPECT_EQ(fires_a, failpoints::fires("chaos.unit"));
  EXPECT_EQ(failpoints::hits("chaos.unit"), 200u);
  // Sanity on the Bernoulli: p=0.4 over 200 hits lands well inside (40,120)
  // for any reasonable mixer — and the count is exact per seed anyway.
  EXPECT_GT(fires_a, 40u);
  EXPECT_LT(fires_a, 120u);
  // A different seed draws a different schedule.
  const std::vector<int> c = run(0x5EED);
  EXPECT_NE(a, c);
}

TEST_F(ChaosTest, FailpointTriggerModes) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  failpoints::set_seed(1);

  // every_nth: hits 3, 6, 9 fire out of 1..10.
  failpoints::FailpointSpec nth;
  nth.every_nth = 3;
  failpoints::configure("chaos.unit", nth);
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) fired.push_back(hit_unit_site());
  EXPECT_EQ(fired, (std::vector<int>{0, 0, 1, 0, 0, 1, 0, 0, 1, 0}));
  EXPECT_EQ(failpoints::fires("chaos.unit"), 3u);

  // one_shot: exactly hit 4 fires; configure() restarts the count.
  failpoints::FailpointSpec once;
  once.one_shot_hit = 4;
  failpoints::configure("chaos.unit", once);
  fired.clear();
  for (int i = 0; i < 10; ++i) fired.push_back(hit_unit_site());
  EXPECT_EQ(fired, (std::vector<int>{0, 0, 0, 1, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(failpoints::fires("chaos.unit"), 1u);

  // max_fires caps an otherwise-unbounded trigger.
  failpoints::FailpointSpec capped;
  capped.every_nth = 1;
  capped.max_fires = 2;
  failpoints::configure("chaos.unit", capped);
  int total = 0;
  for (int i = 0; i < 10; ++i) total += hit_unit_site();
  EXPECT_EQ(total, 2);
  EXPECT_EQ(failpoints::hits("chaos.unit"), 10u);

  // inject_error = false: the site fires (counts, delays) but the error
  // action must not run — pure latency injection.
  failpoints::FailpointSpec stall;
  stall.every_nth = 1;
  stall.inject_error = false;
  failpoints::configure("chaos.unit", stall);
  EXPECT_EQ(hit_unit_site(), 0);
  EXPECT_EQ(failpoints::fires("chaos.unit"), 1u);

  // disable(): counters stop mattering, nothing fires.
  failpoints::disable("chaos.unit");
  EXPECT_EQ(hit_unit_site(), 0);
}

// --- Outage and allocation failure -----------------------------------------

TEST_F(ChaosTest, ForwardOutageFailsMissesInternalAndServesTheCache) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0xB1));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 64;
  serve::InferenceServer server(model, config);

  // Healthy warm-up: graph 0 lands in the cache, and nothing errs before a
  // fault is armed.
  const serve::Response healthy = server.predict(graphs[0]);
  ASSERT_TRUE(healthy.ok());
  ASSERT_EQ(healthy.label, expected[0]);
  const std::uint64_t forwards_before_fault = server.stats().forwards;

  // 100% forward failure: every miss answers Internal, and the cached graph
  // keeps answering from the cache with its serial label. A failed forward
  // still reached the model, so its Internal answer reports kModelVersion.
  failpoints::set_seed(7);
  failpoints::FailpointSpec always;
  always.every_nth = 1;
  failpoints::configure("serve.forward", always);
  for (int i = 0; i < 8; ++i) {
    const serve::Response miss =
        server.predict(graphs[static_cast<std::size_t>(1 + (i % 3))]);
    EXPECT_EQ(miss.status.code(), support::StatusCode::kInternal);
    EXPECT_EQ(miss.source, serve::Source::Shed);
    EXPECT_EQ(miss.model_version, serve::kModelVersion);
    const serve::Response hit = server.predict(graphs[0]);
    EXPECT_TRUE(hit.ok());
    EXPECT_EQ(hit.label, expected[0]);
    EXPECT_EQ(hit.source, serve::Source::Cache);
  }
  const serve::ServerStats outage = server.stats();
  EXPECT_EQ(outage.internal_errors, 8u);
  // A failed forward completes nothing: the outage has cost no forwards.
  EXPECT_EQ(outage.forwards, forwards_before_fault);
  EXPECT_EQ(outage.cache.hits + outage.cache.misses + outage.coalesced,
            outage.queries);
  EXPECT_EQ(outage.source_cache + outage.source_batch +
                outage.source_coalesced + outage.source_shed,
            outage.queries);

  // Recovery: heal the model; a fresh miss forwards normally again.
  failpoints::disable("serve.forward");
  const serve::Response after = server.predict(graphs[8]);
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(after.label, expected[8]);
  EXPECT_EQ(after.source, serve::Source::Batch);
  const serve::ServerStats final_stats = server.stats();
  EXPECT_EQ(final_stats.forwards, forwards_before_fault + 1);
  EXPECT_EQ(final_stats.cache.hits + final_stats.cache.misses +
                final_stats.coalesced,
            final_stats.queries);
}

TEST_F(ChaosTest, AllocationFailureIsContainedToAnInternalResponse) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0xA110));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 0;  // every predict forwards
  serve::InferenceServer server(model, config);

  // Warm up: steady-state containers stop allocating.
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(server.predict(graphs[1]).label, expected[1]);
  const serve::ServerStats warm = server.stats();

  failpoints::set_seed(3);
  failpoints::FailpointSpec one;
  one.probability = 1.0;
  one.max_fires = 1;

  // On the submit path: admitting a miss allocates its in-flight entry
  // from the BufferPool. The injected bad_alloc comes back as a Status
  // through both entry points, and the admission is undone.
  failpoints::configure("arena.allocate", one);
  const serve::Response refused = server.predict(graphs[1]);
  EXPECT_EQ(refused.status.code(), support::StatusCode::kOverloaded);
  EXPECT_EQ(refused.source, serve::Source::Shed);
  EXPECT_EQ(failpoints::fires("arena.allocate"), 1u);
  failpoints::configure("arena.allocate", one);
  const serve::StatusOr<serve::InferenceServer::Future> submit_refused =
      server.submit(serve::Request(graphs[1]));
  ASSERT_FALSE(submit_refused.ok());
  EXPECT_EQ(submit_refused.status().code(),
            support::StatusCode::kOverloaded);
  EXPECT_EQ(failpoints::fires("arena.allocate"), 1u);
  failpoints::disable("arena.allocate");
  const serve::ServerStats refusals = server.stats();
  EXPECT_EQ(refusals.rejected, warm.rejected + 2);
  EXPECT_EQ(refusals.forwards, warm.forwards);

  // Inside the forward: the query is admitted before the fault is armed,
  // so the first pool allocation is the forward's own scratch. The pump
  // catches the bad_alloc and resolves the batch Internal.
  serve::StatusOr<serve::InferenceServer::Future> admitted =
      server.submit(serve::Request(graphs[1]));
  ASSERT_TRUE(admitted.ok());
  failpoints::configure("arena.allocate", one);
  const serve::Response failed = std::move(admitted).value().get();
  EXPECT_EQ(failed.status.code(), support::StatusCode::kInternal);
  EXPECT_EQ(failpoints::fires("arena.allocate"), 1u);
  failpoints::disable("arena.allocate");

  // The server serves on. Had a refusal left an orphan queued slot, this
  // forward would carry it too; had it left a stale in-flight entry, this
  // query would attach to a dead leader instead of forwarding.
  const serve::Response served = server.predict(graphs[1]);
  EXPECT_TRUE(served.ok());
  EXPECT_EQ(served.label, expected[1]);
  EXPECT_EQ(served.source, serve::Source::Batch);
  const serve::ServerStats final_stats = server.stats();
  EXPECT_EQ(final_stats.forwards, warm.forwards + 1);
  EXPECT_EQ(final_stats.max_batch, 1u);
  EXPECT_EQ(final_stats.coalesced, 0u);
  EXPECT_EQ(final_stats.internal_errors, 1u);
  EXPECT_EQ(final_stats.cache.hits + final_stats.cache.misses +
                final_stats.coalesced,
            final_stats.queries);
  EXPECT_EQ(final_stats.source_cache + final_stats.source_batch +
                final_stats.source_coalesced + final_stats.source_shed,
            final_stats.queries);
}

// --- Scripted deterministic fault window ------------------------------------

struct ScriptedRun {
  std::vector<int> answers;  // label, or -(int)code for failures
  serve::ServerStats stats;
};

bool operator==(const serve::ServerStats& a, const serve::ServerStats& b) {
  auto key = [](const serve::ServerStats& s) {
    return std::make_tuple(
        s.queries, s.forwards, s.batches, s.max_batch, s.coalesced,
        s.rejected, s.deadline_exceeded, s.internal_errors, s.peak_queue,
        s.invalid_arguments, s.source_cache, s.source_batch,
        s.source_coalesced, s.source_shed, s.cache.hits, s.cache.misses);
  };
  return key(a) == key(b);
}

/// One driver thread, three phases (healthy -> 35% forward failure ->
/// healed). No decision depends on a clock, so the whole run — answers AND
/// stats — is a pure function of the seed.
ScriptedRun run_scripted(int model_threads, std::uint64_t seed) {
  failpoints::disable_all();
  failpoints::set_seed(seed);
  auto model = std::make_shared<const gnn::StaticModel>(
      small_config(0x5C21, model_threads));

  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 16;
  serve::InferenceServer server(model, config);

  const auto& graphs = test_graphs();
  Rng rng(hash_combine64(seed, 0x57A));
  ScriptedRun out;
  auto drive = [&](int queries) {
    for (int q = 0; q < queries; ++q) {
      const std::size_t g = rng.next_below(graphs.size());
      const serve::Response r = server.predict(graphs[g]);
      out.answers.push_back(r.ok()
                                ? r.label
                                : -static_cast<int>(r.status.code()));
    }
  };

  drive(60);  // healthy
  failpoints::FailpointSpec flaky;
  flaky.probability = 0.35;
  failpoints::configure("serve.forward", flaky);
  drive(120);  // fault window
  failpoints::disable("serve.forward");
  drive(60);  // healed

  out.stats = server.stats();
  failpoints::disable_all();
  return out;
}

TEST_F(ChaosTest, ScriptedFaultWindowReproducesBitForBit) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  // A pure function of the seed — across reruns AND across model thread
  // counts.
  const ScriptedRun once = run_scripted(1, 0xD1CE);
  const ScriptedRun again = run_scripted(1, 0xD1CE);
  const ScriptedRun threaded = run_scripted(4, 0xD1CE);
  EXPECT_EQ(once.answers, again.answers);
  EXPECT_TRUE(once.stats == again.stats);
  EXPECT_EQ(once.answers, threaded.answers)
      << "model threads changed the fault schedule";
  EXPECT_TRUE(once.stats == threaded.stats)
      << "model threads changed the final stats";
  // The window actually exercised the machinery.
  EXPECT_GT(once.stats.internal_errors, 0u);
  // Conservation, under injection, exactly.
  EXPECT_EQ(once.stats.cache.hits + once.stats.cache.misses +
                once.stats.coalesced,
            once.stats.queries);
  // Different seed, different run (schedule or traffic or both).
  const ScriptedRun other = run_scripted(1, 0xFACE);
  EXPECT_NE(once.answers, other.answers);
}

// --- Concurrent chaos against one server ------------------------------------

/// Free-running clients, optional fault injection, and a mix of sync
/// predicts and submit+then futures. Asserts invariants that hold under
/// EVERY interleaving.
void run_concurrent_chaos(bool with_faults) {
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0xC0C0A));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  serve::ServerConfig config;
  config.max_queue = 16;
  config.max_batch = 8;
  config.cache_capacity = 64;
  serve::InferenceServer server(model, config);

  if (with_faults) {
    failpoints::set_seed(0xBAD5EED);
    failpoints::FailpointSpec flaky_forward;
    flaky_forward.probability = 0.2;
    flaky_forward.delay_us = 200;  // fail AND stall: 20% of forwards
    failpoints::configure("serve.forward", flaky_forward);
    failpoints::FailpointSpec flaky_admit;
    flaky_admit.probability = 0.05;
    failpoints::configure("serve.admit", flaky_admit);
  }

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 120;
  std::atomic<std::uint64_t> ok_answers{0};
  std::atomic<std::uint64_t> failed_answers{0};
  std::atomic<std::uint64_t> callbacks_fired{0};
  std::atomic<std::uint64_t> futures_submitted{0};
  std::atomic<bool> wrong_bits{false};

  // Every Ok answer must be the serial predict of its graph and name the
  // one model — a failing server may refuse, never lie.
  auto check = [&](std::size_t g, const serve::Response& r) {
    if (!r.ok()) {
      failed_answers.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ok_answers.fetch_add(1, std::memory_order_relaxed);
    if (r.model_version != serve::kModelVersion || expected[g] != r.label)
      wrong_bits.store(true, std::memory_order_relaxed);
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(hash_combine64(0xC11E27, static_cast<std::uint64_t>(c)));
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::size_t g = rng.next_below(graphs.size());
        if (rng.next_below(5) == 0) {
          // Async path: future + continuation; resolution may come from any
          // pumping thread, or from the shutdown drain.
          serve::StatusOr<serve::InferenceServer::Future> submitted =
              server.submit(serve::Request(graphs[g]));
          if (!submitted.ok()) {
            failed_answers.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          futures_submitted.fetch_add(1, std::memory_order_relaxed);
          std::move(submitted).value().then(
              [&, g](const serve::Response& r) {
                callbacks_fired.fetch_add(1, std::memory_order_relaxed);
                check(g, r);
              });
        } else {
          check(g, server.predict(graphs[g]));
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Shutdown drains every admitted query: all continuations fire exactly
  // once (callbacks_fired counts each firing, so a double fire would
  // overshoot futures_submitted, a dropped one undershoot).
  server.shutdown();
  EXPECT_EQ(callbacks_fired.load(), futures_submitted.load());
  EXPECT_FALSE(wrong_bits.load())
      << "an admitted answer differed from serial predict";

  const serve::ServerStats stats = server.stats();
  // Conservation under injection and concurrency:
  EXPECT_EQ(stats.cache.hits + stats.cache.misses + stats.coalesced,
            stats.queries);
  // Sources partition resolved client queries exactly.
  EXPECT_EQ(stats.source_cache + stats.source_batch + stats.source_coalesced +
                stats.source_shed,
            stats.queries);
  // Every issued query got exactly one answer.
  EXPECT_EQ(ok_answers.load() + failed_answers.load() -
                callbacks_fired.load(),
            static_cast<std::uint64_t>(kClients) * kQueriesPerClient -
                futures_submitted.load());
  if (with_faults) {
    EXPECT_GT(stats.internal_errors, 0u) << "faults were armed but never hit";
  } else {
    EXPECT_EQ(stats.internal_errors, 0u);
  }
  failpoints::disable_all();
}

TEST_F(ChaosTest, ConcurrentHealthyRunHoldsEveryInvariant) {
  // Runs in every build — the harness itself must not depend on failpoints.
  run_concurrent_chaos(/*with_faults=*/false);
}

TEST_F(ChaosTest, ConcurrentFaultStormHoldsEveryInvariant) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  run_concurrent_chaos(/*with_faults=*/true);
}

TEST_F(ChaosTest, ShutdownDrainsEveryFutureUnderTotalForwardFailure) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0xD2A1));
  const auto& graphs = test_graphs();

  serve::ServerConfig config;
  config.background_loop = false;  // nothing pumps until shutdown drains
  config.cache_capacity = 0;
  serve::InferenceServer server(model, config);

  failpoints::set_seed(11);
  failpoints::FailpointSpec always;
  always.every_nth = 1;
  failpoints::configure("serve.forward", always);

  std::atomic<int> fired{0};
  constexpr int kFutures = 24;
  for (int i = 0; i < kFutures; ++i) {
    serve::StatusOr<serve::InferenceServer::Future> submitted =
        server.submit(serve::Request(graphs[i % graphs.size()]));
    ASSERT_TRUE(submitted.ok());
    std::move(submitted).value().then([&fired](const serve::Response& r) {
      // With a 100%-failing model, every drained answer is Internal —
      // but it IS an answer; no future may be dropped.
      EXPECT_EQ(r.status.code(), support::StatusCode::kInternal);
      fired.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(fired.load(), 0) << "nothing should resolve before the drain";
  server.shutdown();
  EXPECT_EQ(fired.load(), kFutures);
}

// --- Wire-layer chaos (src/net/) --------------------------------------------
//
// Same philosophy as the server chaos above, one layer further out: a TCP
// connection dying mid-frame, a read fault, a dribbling write path or an
// injected decode failure must never crash the server, leak a connection
// slot, or corrupt ANOTHER connection's stream. Mid-frame disconnect needs
// no failpoints and runs in every build; the injected-fault legs are gated
// on IRGNN_FAILPOINTS like the rest of this file.

/// The daemon's admission default (irgnn_served --max-queue 256).
serve::ServerConfig daemon_config() {
  serve::ServerConfig config;
  config.max_queue = 256;
  return config;
}

/// Shared scaffolding: a small InferenceServer + net server on an ephemeral
/// port.
struct NetChaosRig {
  NetChaosRig()
      : inference(std::make_shared<const gnn::StaticModel>(small_config(42)),
                  daemon_config()) {
    server.emplace(inference, net::NetServerConfig{});
    start_ok = server->start().ok();
  }
  /// Shuts down and asserts the one invariant every leg shares: no leaked
  /// slots, loop finished.
  void finish() {
    server->shutdown();
    const net::NetServerStats stats = server->stats();
    EXPECT_TRUE(stats.finished);
    EXPECT_EQ(stats.open_slots, 0u) << "a chaos leg leaked a connection slot";
  }
  serve::InferenceServer inference;
  std::optional<net::NetServer> server;
  bool start_ok = false;
};

TEST_F(ChaosTest, MidFrameDisconnectNeverLeaksOrCorrupts) {
  NetChaosRig rig;
  ASSERT_TRUE(rig.start_ok);
  const auto& graphs = test_graphs();
  const int expected = rig.inference.predict(graphs[0]).label;

  // An innocent client stays connected across every abuse below; its
  // answers must stay correct throughout.
  net::NetClient innocent;
  ASSERT_TRUE(innocent.connect("127.0.0.1", rig.server->port()).ok());

  net::FrameBytes frame;
  net::encode_request_into(9, serve::Request(graphs[0]), frame);
  for (std::size_t cut : {std::size_t{1}, std::size_t{4},
                          net::kHeaderBytes, net::kHeaderBytes + 3,
                          frame.size() - 1}) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(rig.server->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_GT(::send(fd, frame.data(), cut, MSG_NOSIGNAL), 0);
    ::close(fd);  // vanish mid-frame

    auto alive = innocent.predict(serve::Request(graphs[0]));
    ASSERT_TRUE(alive.ok()) << "innocent connection broken by a disconnect "
                               "at byte " << cut;
    EXPECT_EQ(alive->label, expected);
  }
  innocent.close();
  rig.finish();
}

TEST_F(ChaosTest, NetReadFaultClosesOnlyTheFaultedConnection) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  NetChaosRig rig;
  ASSERT_TRUE(rig.start_ok);
  const auto& graphs = test_graphs();

  failpoints::set_seed(21);
  failpoints::FailpointSpec one;
  one.every_nth = 1;
  one.max_fires = 1;
  failpoints::configure("net.read", one);

  // The faulted victim loses its connection; the server survives and the
  // next connection (budget spent) works.
  net::NetClient victim;
  ASSERT_TRUE(victim.connect("127.0.0.1", rig.server->port()).ok());
  EXPECT_FALSE(victim.predict(serve::Request(graphs[1])).ok());

  net::NetClient after;
  ASSERT_TRUE(after.connect("127.0.0.1", rig.server->port()).ok());
  auto r = after.predict(serve::Request(graphs[1]));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->label, rig.inference.predict(graphs[1]).label);
  after.close();

  EXPECT_GE(rig.server->stats().read_faults, 1u);
  rig.finish();
}

TEST_F(ChaosTest, ShortWritesDribbleFramesOutIntact) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  NetChaosRig rig;
  ASSERT_TRUE(rig.start_ok);
  const auto& graphs = test_graphs();
  std::vector<int> expected;
  for (int g = 0; g < 4; ++g)
    expected.push_back(rig.inference.predict(graphs[g]).label);

  // EVERY server write truncated to one byte: responses leave one byte per
  // epoll wakeup. Framing must survive — the client still reassembles
  // byte-identical responses, just slowly.
  failpoints::set_seed(22);
  failpoints::FailpointSpec always;
  always.every_nth = 1;
  failpoints::configure("net.write", always);

  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", rig.server->port()).ok());
  for (int g = 0; g < 4; ++g) {
    auto r = client.predict(serve::Request(graphs[g]));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->ok());
    EXPECT_EQ(r->label, expected[g]);
  }
  client.close();
  failpoints::disable_all();
  rig.finish();
}

TEST_F(ChaosTest, InjectedDecodeFaultAnswersAndKeepsTheConnection) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  NetChaosRig rig;
  ASSERT_TRUE(rig.start_ok);
  const auto& graphs = test_graphs();

  failpoints::set_seed(23);
  failpoints::FailpointSpec once;
  once.one_shot_hit = 1;
  failpoints::configure("net.decode", once);

  // The injected decode failure is well-framed: the server answers
  // InvalidArgument to the right tag and the SAME connection keeps working.
  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", rig.server->port()).ok());
  auto faulted = client.predict(serve::Request(graphs[2]));
  ASSERT_TRUE(faulted.ok()) << "transport must survive a decode fault";
  EXPECT_EQ(faulted->status.code(), support::StatusCode::kInvalidArgument);

  auto healthy = client.predict(serve::Request(graphs[2]));
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(healthy->ok());
  EXPECT_EQ(healthy->label, rig.inference.predict(graphs[2]).label);
  client.close();

  EXPECT_GE(rig.server->stats().decode_errors, 1u);
  rig.finish();
}

TEST_F(ChaosTest, AcceptFaultDropsOneConnectionServerSurvives) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  NetChaosRig rig;
  ASSERT_TRUE(rig.start_ok);
  const auto& graphs = test_graphs();

  failpoints::set_seed(24);
  failpoints::FailpointSpec once;
  once.one_shot_hit = 1;
  failpoints::configure("net.accept", once);

  // The kernel completes the handshake, then the fault closes the fd: the
  // victim sees a connection that dies before any reply.
  net::NetClient victim;
  ASSERT_TRUE(victim.connect("127.0.0.1", rig.server->port()).ok());
  EXPECT_FALSE(victim.predict(serve::Request(graphs[3])).ok());

  net::NetClient after;
  ASSERT_TRUE(after.connect("127.0.0.1", rig.server->port()).ok());
  auto r = after.predict(serve::Request(graphs[3]));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->label, rig.inference.predict(graphs[3]).label);
  after.close();

  EXPECT_GE(rig.server->stats().accept_failures, 1u);
  rig.finish();
}

}  // namespace
}  // namespace irgnn
