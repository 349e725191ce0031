// Seeded chaos harness for the failure-containment layer.
//
// Two kinds of test live here:
//
//   Deterministic scripted runs (one driver thread): the failpoint schedule
//   is a pure function of the seed, the breaker is configured time-free
//   (probe interval 0, or far beyond the test), and the ENTIRE final stats
//   snapshot — queries, forwards, trips, probes, short-circuits, cache
//   counters — must reproduce bit-for-bit across runs and across model
//   thread counts.
//
//   Concurrent chaos (free-running clients against one InferenceServer,
//   faults firing mid-flight): interleavings vary, so these assert
//   invariants instead of exact counts — every Ok answer bit-identical to a
//   serial predict by the version that reports it, hits + misses +
//   coalesced == queries, every future resolved exactly once by shutdown.
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

// --- Circuit breaker --------------------------------------------------------

TEST_F(ChaosTest, BreakerTripsServesCacheShortCircuitsMissesAndRecovers) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0xB1));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 64;
  config.breaker_trip_threshold = 3;
  config.breaker_probe_interval_us = 1000;
  serve::InferenceServer server(model, config);

  // Healthy warm-up: graph 0 lands in the cache, and nothing errs before a
  // fault is armed.
  const serve::Response healthy = server.predict(graphs[0]);
  ASSERT_TRUE(healthy.ok());
  ASSERT_EQ(healthy.label, expected[0]);
  const std::uint64_t forwards_before_fault = server.stats().forwards;

  // 100% forward failure: three distinct misses trip the breaker.
  failpoints::set_seed(7);
  failpoints::FailpointSpec always;
  always.every_nth = 1;
  failpoints::configure("serve.forward", always);
  for (int g = 1; g <= 3; ++g) {
    const serve::Response r = server.predict(graphs[static_cast<std::size_t>(g)]);
    EXPECT_EQ(r.status.code(), support::StatusCode::kInternal);
  }
  serve::ServerStats tripped = server.stats();
  EXPECT_EQ(tripped.breaker_trips, 1u);
  EXPECT_TRUE(tripped.breaker_open);
  EXPECT_EQ(tripped.internal_errors, 3u);
  // A failed forward completes nothing: the outage has cost no forwards.
  EXPECT_EQ(tripped.forwards, forwards_before_fault);

  // Degraded mode, within the probe interval: new misses answer Unavailable
  // WITHOUT spending a forward; cached traffic keeps flowing bit-identically.
  int short_circuited = 0;
  for (int i = 0; i < 8; ++i) {
    const serve::Response miss =
        server.predict(graphs[static_cast<std::size_t>(4 + (i % 3))]);
    if (miss.status.code() == support::StatusCode::kUnavailable)
      ++short_circuited;
    const serve::Response hit = server.predict(graphs[0]);
    EXPECT_TRUE(hit.ok());
    EXPECT_EQ(hit.label, expected[0]);
    EXPECT_EQ(hit.source, serve::Source::Cache);
  }
  serve::ServerStats degraded = server.stats();
  EXPECT_GT(degraded.breaker_short_circuits, 0u);
  EXPECT_EQ(static_cast<int>(degraded.breaker_short_circuits),
            short_circuited);
  // Zero forwards were burned on short-circuited misses; the only extra
  // forwards (if any) are failed half-open probes, which count no forward
  // either (a failed forward never increments forwards_). So: none at all.
  EXPECT_EQ(degraded.forwards, forwards_before_fault);
  // Conservation holds under degradation: a short-circuited miss is still
  // a miss.
  EXPECT_EQ(degraded.cache.hits + degraded.cache.misses + degraded.coalesced,
            degraded.queries);

  // Recovery: heal the model, wait out the probe interval; the next miss is
  // admitted as the half-open probe, succeeds, and closes the breaker.
  failpoints::disable("serve.forward");
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  const serve::Response probe = server.predict(graphs[7]);
  EXPECT_TRUE(probe.ok());
  EXPECT_EQ(probe.label, expected[7]);
  serve::ServerStats recovered = server.stats();
  EXPECT_FALSE(recovered.breaker_open);
  EXPECT_GE(recovered.breaker_probes, 1u);
  // Full service: a fresh miss forwards normally again.
  const serve::Response after = server.predict(graphs[8]);
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(after.label, expected[8]);
  const serve::ServerStats final_stats = server.stats();
  EXPECT_EQ(final_stats.breaker_trips, 1u) << "the script trips it once";
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
  config.coalesce = false;    // no in-flight map nodes on the submit path
  serve::InferenceServer server(model, config);

  // Warm up: steady-state containers stop allocating, so once armed, the
  // first BufferPool::allocate call is the forward's own scratch.
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(server.predict(graphs[1]).label, expected[1]);

  failpoints::set_seed(3);
  failpoints::FailpointSpec one;
  one.probability = 1.0;
  one.max_fires = 1;
  failpoints::configure("arena.allocate", one);
  // The injected bad_alloc takes the exact path of real allocation
  // pressure: caught by the pump, resolved Internal — never thrown at us.
  const serve::Response r = server.predict(graphs[1]);
  EXPECT_EQ(r.status.code(), support::StatusCode::kInternal);
  EXPECT_GE(failpoints::fires("arena.allocate"), 1u);
  failpoints::disable("arena.allocate");
  // The server survived and serves on.
  EXPECT_EQ(server.predict(graphs[1]).label, expected[1]);
}

// --- Scripted deterministic fault window ------------------------------------

struct ScriptedRun {
  std::vector<int> answers;  // label, or -(int)code for failures
  serve::ServerStats stats;
};

bool operator==(const serve::ServerStats& a, const serve::ServerStats& b) {
  auto key = [](const serve::ServerStats& s) {
    return std::make_tuple(
        s.queries, s.forwards, s.batches, s.max_batch, s.model_swaps,
        s.coalesced, s.shed, s.rejected, s.deadline_exceeded,
        s.internal_errors, s.peak_queue, s.invalid_arguments,
        s.breaker_trips, s.breaker_probes, s.breaker_short_circuits,
        s.breaker_open, s.source_cache, s.source_batch, s.source_coalesced,
        s.source_shed, s.cache.hits, s.cache.misses);
  };
  return key(a) == key(b);
}

/// One driver thread, three phases (healthy -> 35% forward failure ->
/// healed), breaker configured time-free: with probe_interval_us == 0 every
/// open-breaker miss immediately probes (recovery path, no short-circuits);
/// with a probe interval far beyond the test, every open-breaker miss
/// short-circuits (degraded path, no recovery). Either way no decision
/// depends on a clock, so the whole run — answers AND stats — is a pure
/// function of (seed, probe_interval).
ScriptedRun run_scripted(int model_threads, std::uint64_t seed,
                         std::int64_t probe_interval_us) {
  failpoints::disable_all();
  failpoints::set_seed(seed);
  auto model = std::make_shared<const gnn::StaticModel>(
      small_config(0x5C21, model_threads));

  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 16;
  config.breaker_trip_threshold = 2;
  config.breaker_probe_interval_us = probe_interval_us;
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
  drive(60);  // healed (recovery only reachable when probes are allowed)

  out.stats = server.stats();
  failpoints::disable_all();
  return out;
}

TEST_F(ChaosTest, ScriptedFaultWindowReproducesBitForBit) {
  if (!failpoints::enabled()) GTEST_SKIP() << "failpoints compiled out";
  // probe_interval 0: open-breaker misses probe immediately (recovery
  // exercised). probe_interval 10 minutes: they short-circuit for the rest
  // of the run (degraded mode exercised). Both must be pure functions of
  // the seed — across reruns AND across model thread counts.
  for (std::int64_t interval_us : {std::int64_t{0}, std::int64_t{600000000}}) {
    const ScriptedRun once = run_scripted(1, 0xD1CE, interval_us);
    const ScriptedRun again = run_scripted(1, 0xD1CE, interval_us);
    const ScriptedRun threaded = run_scripted(4, 0xD1CE, interval_us);
    EXPECT_EQ(once.answers, again.answers) << "interval " << interval_us;
    EXPECT_TRUE(once.stats == again.stats) << "interval " << interval_us;
    EXPECT_EQ(once.answers, threaded.answers)
        << "model threads changed the fault schedule, interval "
        << interval_us;
    EXPECT_TRUE(once.stats == threaded.stats)
        << "model threads changed the final stats, interval " << interval_us;
    // The window actually exercised the machinery.
    EXPECT_GT(once.stats.internal_errors, 0u) << "interval " << interval_us;
    EXPECT_GT(once.stats.breaker_trips, 0u) << "interval " << interval_us;
    if (interval_us == 0) {
      EXPECT_GT(once.stats.breaker_probes, 0u);
      EXPECT_FALSE(once.stats.breaker_open) << "probes should have closed it";
    } else {
      EXPECT_GT(once.stats.breaker_short_circuits, 0u);
    }
    // Conservation, under injection, exactly.
    EXPECT_EQ(once.stats.cache.hits + once.stats.cache.misses +
                  once.stats.coalesced,
              once.stats.queries);
    // Different seed, different run (schedule or traffic or both).
    const ScriptedRun other = run_scripted(1, 0xFACE, interval_us);
    EXPECT_NE(once.answers, other.answers);
  }
}

// --- Concurrent chaos against one server ------------------------------------

/// Free-running clients, optional fault injection, a mid-run hot swap, and
/// a mix of sync predicts and submit+then futures, with the breaker armed.
/// Asserts invariants that hold under EVERY interleaving.
void run_concurrent_chaos(bool with_faults) {
  auto model_v1 =
      std::make_shared<const gnn::StaticModel>(small_config(0xC0C0A));
  auto model_v2 =
      std::make_shared<const gnn::StaticModel>(small_config(0xFACADE));
  const std::vector<int> expected_v1 = serial_predict(*model_v1);
  const std::vector<int> expected_v2 = serial_predict(*model_v2);
  const auto& graphs = test_graphs();

  serve::ServerConfig config;
  config.max_queue = 16;
  config.shed_policy = serve::ShedPolicy::DropOldest;
  config.max_batch = 8;
  config.cache_capacity = 64;
  config.breaker_trip_threshold = 4;
  config.breaker_probe_interval_us = 500;
  serve::InferenceServer server(model_v1, config);
  const std::uint64_t v1 = server.model_version();

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

  // Every Ok answer must be the serial predict of its graph BY THE VERSION
  // THAT REPORTS IT — a degraded/failing server may refuse, never lie, and
  // never answer from a version it does not name.
  auto check = [&](std::size_t g, const serve::Response& r) {
    if (!r.ok()) {
      failed_answers.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ok_answers.fetch_add(1, std::memory_order_relaxed);
    const std::vector<int>* expected = nullptr;
    if (r.model_version == v1)
      expected = &expected_v1;
    else if (r.model_version == v1 + 1)
      expected = &expected_v2;
    if (!expected || (*expected)[g] != r.label)
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
  // Hot swap mid-storm: in-flight batches finish on v1, later ones serve
  // v2; version-keyed caching makes stale answers structurally impossible,
  // and check() would catch one anyway.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t v2 = server.publish(model_v2);
  EXPECT_EQ(v2, v1 + 1);
  for (auto& t : clients) t.join();

  // Shutdown drains every admitted query: all continuations fire exactly
  // once (callbacks_fired counts each firing, so a double fire would
  // overshoot futures_submitted, a dropped one undershoot).
  server.shutdown();
  EXPECT_EQ(callbacks_fired.load(), futures_submitted.load());
  EXPECT_FALSE(wrong_bits.load())
      << "an admitted answer differed from serial predict by its version";

  const serve::ServerStats stats = server.stats();
  // Conservation under injection, concurrency and hot swap:
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
    EXPECT_EQ(stats.breaker_trips, 0u);
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

/// The daemon's admission defaults (irgnn_served --max-queue 256, Reject).
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
