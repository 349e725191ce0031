// Inference-server tests: determinism of dynamically micro-batched
// concurrent serving against serial StaticModel::predict, the
// zero-allocation warm cache-hit contract (this binary counts global
// operator new, like arena_test), admission control (queue bounds and
// deadlines), in-flight coalescing, and the
// sharded LRU prediction cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "gnn/model.h"
#include "graph/fingerprint.h"
#include "graph/graph_builder.h"
#include "serve/prediction_cache.h"
#include "serve/server.h"
#include "support/rng.h"
#include "support/thread_pool.h"
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

/// A dozen structurally distinct suite regions, built once.
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

/// Settles the global pool before a heap-counting window: earlier tests'
/// cancelled background-loop tasks linger in the queue and would otherwise
/// run (touching the promise machinery, and so the allocator) mid-window.
/// The barrier occupies every worker at once, so when it releases, every
/// previously queued task has run AND been destroyed (workers destroy the
/// old task before popping the next).
void quiesce_pool() {
  auto& pool = irgnn::support::ThreadPool::global();
  const int n = pool.num_workers();
  if (n <= 0) return;
  std::atomic<int> arrived{0};
  std::vector<std::future<void>> sentinels;
  sentinels.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    sentinels.push_back(pool.submit([&arrived, n] {
      arrived.fetch_add(1);
      while (arrived.load() < n) std::this_thread::yield();
    }));
  for (auto& s : sentinels) s.wait();
}

gnn::ModelConfig small_config(std::uint64_t seed) {
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 5;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.seed = seed;
  cfg.num_threads = 1;
  return cfg;
}

std::vector<int> serial_predict(const gnn::StaticModel& model) {
  std::vector<const graph::ProgramGraph*> ptrs;
  for (const auto& g : test_graphs()) ptrs.push_back(&g);
  return model.predict(ptrs);
}

TEST(InferenceServerTest, ConcurrentSubmitBitIdenticalToSerialPredict) {
  // N concurrent clients over a repeated-graph stream, for every
  // combination of loop mode and batch size: each answer must equal the
  // serial predict of that graph — batching composition, caching and
  // client interleaving may never change a bit.
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0xA));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  for (bool background : {false, true}) {
    for (int max_batch : {1, 4, 64}) {
      serve::ServerConfig config;
      config.background_loop = background;
      config.max_batch = max_batch;
      config.cache_capacity = 64;
      serve::InferenceServer server(model, config);

      constexpr int kClients = 4;
      constexpr int kQueriesPerClient = 48;
      std::vector<std::vector<int>> got(kClients);
      std::vector<std::vector<std::size_t>> streams(kClients);
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          Rng rng(hash_combine64(0xC11E, static_cast<std::uint64_t>(c)));
          for (int q = 0; q < kQueriesPerClient; ++q) {
            const std::size_t g = rng.next_below(graphs.size());
            streams[c].push_back(g);
            const serve::Response r = server.predict(graphs[g]);
            // An unbounded queue may never shed: every response is Ok.
            got[c].push_back(r.ok() ? r.label : -1);
          }
        });
      }
      for (auto& t : clients) t.join();
      for (int c = 0; c < kClients; ++c)
        for (int q = 0; q < kQueriesPerClient; ++q)
          EXPECT_EQ(got[c][q], expected[streams[c][q]])
              << "background=" << background << " max_batch=" << max_batch
              << " client=" << c << " query=" << q;
      const serve::ServerStats stats = server.stats();
      EXPECT_EQ(stats.queries,
                static_cast<std::uint64_t>(kClients * kQueriesPerClient));
      // Conservation: every query is exactly one of hit / miss /
      // coalesced, and every miss is answered by a forward.
      EXPECT_EQ(stats.cache.hits + stats.cache.misses + stats.coalesced,
                stats.queries);
      EXPECT_EQ(stats.forwards + stats.cache.hits + stats.coalesced,
                stats.queries);
      EXPECT_LE(stats.max_batch, static_cast<std::uint64_t>(max_batch));
      // 192 queries over 12 fingerprints: hits and coalesced waiters
      // together must absorb most (which of the two answers a duplicate
      // depends on whether the leader already resolved).
      EXPECT_GE(stats.cache.hits + stats.coalesced, stats.queries / 2);
    }
  }
}

TEST(InferenceServerTest, QueuedMissesFormOneGreedyBatch) {
  // Batching is greedy and counted, not timed: with no serving loop,
  // nothing pumps until the first get(), which takes everything queued
  // (up to max_batch) into one forward — no window, no second batch.
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x6B));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  std::vector<std::size_t> picks;  // 5 graphs with distinct fingerprints
  std::set<std::uint64_t> fps;
  for (std::size_t g = 0; g < graphs.size() && picks.size() < 5; ++g)
    if (fps.insert(graph::fingerprint(graphs[g])).second) picks.push_back(g);
  ASSERT_EQ(picks.size(), 5u);

  serve::ServerConfig config;
  config.background_loop = false;
  serve::InferenceServer server(model, config);
  std::vector<serve::InferenceServer::Future> futures;
  for (std::size_t g : picks) {
    serve::StatusOr<serve::InferenceServer::Future> submitted =
        server.submit(serve::Request(graphs[g]));
    ASSERT_TRUE(submitted.ok()) << submitted.status().code_name();
    futures.push_back(std::move(submitted).value());
  }
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const serve::Response r = futures[i].get();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.source, serve::Source::Batch);
    EXPECT_EQ(r.label, expected[picks[i]]);
  }
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch, 5u);
  EXPECT_EQ(stats.forwards, 5u);
}

TEST(InferenceServerTest, FuturesResolveAndMixWithSyncClients) {
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0xB));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  serve::ServerConfig config;
  config.max_batch = 4;
  config.cache_capacity = 0;  // every query must take the batched path
  serve::InferenceServer server(model, config);

  std::vector<serve::InferenceServer::Future> futures;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    serve::StatusOr<serve::InferenceServer::Future> submitted =
        server.submit(serve::Request(graphs[g]));
    ASSERT_TRUE(submitted.ok()) << submitted.status().code_name();
    futures.push_back(std::move(submitted).value());
  }
  // A sync query while async work is queued: joins the same micro-batches.
  EXPECT_EQ(server.predict(graphs[0]).label, expected[0]);
  // A couple of suite regions are structurally identical (same
  // fingerprint), so with the cache off a later submit may coalesce onto
  // an earlier one still in flight — first submits always forward.
  std::vector<std::uint64_t> seen_fps;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const std::uint64_t fp = graph::fingerprint(graphs[g]);
    const bool duplicate =
        std::find(seen_fps.begin(), seen_fps.end(), fp) != seen_fps.end();
    seen_fps.push_back(fp);
    const serve::Response r = futures[g].get();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.label, expected[g]);
    if (duplicate)
      EXPECT_TRUE(r.source == serve::Source::Batch ||
                  r.source == serve::Source::Coalesced);
    else
      EXPECT_EQ(r.source, serve::Source::Batch);
    EXPECT_EQ(r.model_version, serve::kModelVersion);
    EXPECT_GE(r.queue_us, 0);
    EXPECT_GE(r.compute_us, 0);
  }
  const std::size_t distinct =
      std::set<std::uint64_t>(seen_fps.begin(), seen_fps.end()).size();
  const serve::ServerStats stats = server.stats();
  // Duplicates (including the sync predict of graphs[0]) either coalesced
  // onto a still-queued leader (one shared forward) or arrived after it
  // resolved and forwarded themselves (the cache is off) — both are
  // correct; the invariant is that forwards + coalesced covers all 13
  // queries and every distinct fingerprint forwarded at least once.
  EXPECT_EQ(stats.forwards + stats.coalesced, graphs.size() + 1);
  EXPECT_GE(stats.forwards, distinct);
  EXPECT_LE(stats.max_batch, 4u);
  EXPECT_GE(stats.batches, (distinct + 3) / 4);
}

TEST(InferenceServerTest, ThenContinuationRunsExactlyOnce) {
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0xF));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  serve::ServerConfig config;
  config.cache_capacity = 64;
  serve::InferenceServer server(model, config);

  // Async continuations on a cold stream: each runs once with the serial-
  // predict bits, on whichever thread pumps the resolving batch.
  std::atomic<int> fired{0};
  std::atomic<int> wrong{0};
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    serve::StatusOr<serve::InferenceServer::Future> submitted =
        server.submit(serve::Request(graphs[g]));
    ASSERT_TRUE(submitted.ok());
    submitted.value().then([&, g](const serve::Response& r) {
      if (!r.ok() || r.label != expected[g]) wrong.fetch_add(1);
      fired.fetch_add(1);
    });
  }
  // Drive the queue dry from this thread (predict pumps), then wait for
  // continuations attached to already-resolved slots to have fired inline.
  for (std::size_t g = 0; g < graphs.size(); ++g)
    EXPECT_EQ(server.predict(graphs[g]).label, expected[g]);
  while (fired.load() < static_cast<int>(graphs.size()))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fired.load(), static_cast<int>(graphs.size()));
  EXPECT_EQ(wrong.load(), 0);

  // A continuation on an already-resolved (cache-hit) future runs inline.
  bool inline_fired = false;
  serve::StatusOr<serve::InferenceServer::Future> hit =
      server.submit(serve::Request(graphs[0]));
  ASSERT_TRUE(hit.ok());
  hit.value().then([&](const serve::Response& r) {
    inline_fired = true;
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.label, expected[0]);
    EXPECT_EQ(r.source, serve::Source::Cache);
  });
  EXPECT_TRUE(inline_fired);
}

TEST(InferenceServerTest, ShutdownDrainsPendingContinuations) {
  // Continuations with no get()-waiter and no background loop: nothing
  // pumps until the server shuts down, whose drain must answer every
  // admitted query and fire each callback exactly once — a then() result
  // can never be silently dropped.
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x13));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  std::atomic<int> fired{0};
  std::atomic<int> wrong{0};
  {
    serve::ServerConfig config;
    config.background_loop = false;
    config.cache_capacity = 0;
    serve::InferenceServer server(model, config);
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      serve::StatusOr<serve::InferenceServer::Future> submitted =
          server.submit(serve::Request(graphs[g]));
      ASSERT_TRUE(submitted.ok());
      submitted.value().then([&fired, &wrong, &expected,
                              g](const serve::Response& r) {
        if (!r.ok() || r.label != expected[g]) wrong.fetch_add(1);
        fired.fetch_add(1);
      });
    }
    EXPECT_EQ(fired.load(), 0);  // nobody has pumped yet
  }  // ~InferenceServer -> shutdown drain
  EXPECT_EQ(fired.load(), static_cast<int>(graphs.size()));
  EXPECT_EQ(wrong.load(), 0);
}

TEST(InferenceServerTest, AbandonedFutureDoesNotLoseOtherQueries) {
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0xC));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  serve::ServerConfig config;
  config.cache_capacity = 0;
  serve::InferenceServer server(model, config);
  {
    serve::InferenceServer::Future dropped =
        std::move(server.submit(serve::Request(graphs[1]))).value();
    // destroyed unresolved
  }
  EXPECT_EQ(server.predict(graphs[2]).label, expected[2]);
  EXPECT_EQ(server.predict(graphs[1]).label, expected[1]);
}

TEST(InferenceServerTest, WarmCacheHitPerformsZeroHeapAllocations) {
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0xD));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  serve::ServerConfig config;
  config.background_loop = false;  // nothing may run concurrently with the
                                   // counter window below
  serve::InferenceServer server(model, config);
  std::vector<int> first;
  for (const auto& g : graphs) first.push_back(server.predict(g).label);
  const serve::ServerStats cold_stats = server.stats();

  // A warm hit is answered from the cache: Ok, Source::Cache, no queue
  // wait and no compute.
  quiesce_pool();
  const std::uint64_t heap_before = g_heap_allocations.load();
  for (int rep = 0; rep < 10; ++rep) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const serve::Response r = server.predict(graphs[g]);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.label, expected[g]);
      ASSERT_EQ(r.source, serve::Source::Cache);
      ASSERT_EQ(r.queue_us, 0);
      ASSERT_EQ(r.compute_us, 0);
    }
  }
  const std::uint64_t heap_delta = g_heap_allocations.load() - heap_before;
  EXPECT_EQ(heap_delta, 0u) << "a warm cache-hit query allocated";

  // Every warm query hit (the cold pass may contribute extra hits when two
  // suite regions happen to be structurally identical) and none formed a
  // batch or ran a forward.
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.hits - cold_stats.cache.hits,
            static_cast<std::uint64_t>(10 * graphs.size()));
  EXPECT_EQ(stats.forwards, cold_stats.forwards);
  EXPECT_EQ(stats.batches, cold_stats.batches);
  EXPECT_EQ(first, expected);
}

TEST(InferenceServerTest, WarmMissesThroughThenPerformZeroHeapAllocations) {
  // The path NetServer answers every request by: submit, then a then()
  // continuation that the pump fires after the forward. No cache, so every
  // query is a miss. Each round queues the 12 graphs with a continuation
  // each, then drives the pump with a 13th query that coalesces onto graph
  // 0 and waits. Once warm (the pump's two continuation buffers have grown
  // in the first rounds), a round must not touch the heap.
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x1A));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  serve::ServerConfig config;
  config.background_loop = false;  // this thread pumps, inside the window
  config.cache_capacity = 0;
  serve::InferenceServer server(model, config);
  int fired = 0;
  int wrong = 0;
  auto round = [&] {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      serve::StatusOr<serve::InferenceServer::Future> submitted =
          server.submit(serve::Request(graphs[g]));
      ASSERT_TRUE(submitted.ok());
      submitted.value().then([&fired, &wrong, &expected,
                              g](const serve::Response& r) {
        if (!r.ok() || r.label != expected[g]) ++wrong;
        ++fired;
      });
    }
    serve::StatusOr<serve::InferenceServer::Future> pumper =
        server.submit(serve::Request(graphs[0]));
    ASSERT_TRUE(pumper.ok());
    const serve::Response r = pumper.value().get();
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.label, expected[0]);
    ASSERT_EQ(r.source, serve::Source::Coalesced);
  };
  for (int warm = 0; warm < 3; ++warm) round();
  ASSERT_EQ(fired, static_cast<int>(3 * graphs.size()));
  const serve::ServerStats warm_stats = server.stats();

  quiesce_pool();
  const std::uint64_t heap_before = g_heap_allocations.load();
  for (int rep = 0; rep < 10; ++rep) round();
  const std::uint64_t heap_delta = g_heap_allocations.load() - heap_before;
  EXPECT_EQ(heap_delta, 0u) << "warm misses answered through then() "
                               "allocated";

  EXPECT_EQ(fired, static_cast<int>(13 * graphs.size()));
  EXPECT_EQ(wrong, 0);
  // One batch per round, one forward per distinct graph (two suite regions
  // may be structurally identical); every other query coalesced.
  std::set<std::uint64_t> distinct;
  for (const auto& g : graphs) distinct.insert(graph::fingerprint(g));
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.forwards - warm_stats.forwards, 10 * distinct.size());
  EXPECT_EQ(stats.batches - warm_stats.batches, 10u);
  EXPECT_EQ(stats.coalesced - warm_stats.coalesced,
            10 * (graphs.size() + 1 - distinct.size()));
}

// --- Admission control ------------------------------------------------------

TEST(InferenceServerTest, AdmittedResponsesBitIdenticalForEveryBound) {
  // The pinned determinism contract: N concurrent clients, for several
  // queue bounds — every response that comes back Ok must equal the
  // model's serial predict of that graph. Shedding may remove answers,
  // never change them.
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x1A));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  for (std::size_t max_queue : {std::size_t{0}, std::size_t{2},
                                std::size_t{16}}) {
    serve::ServerConfig config;
    config.max_queue = max_queue;
    config.max_batch = 4;
    config.cache_capacity = 16;
    serve::InferenceServer server(model, config);

    constexpr int kClients = 4;
    constexpr int kQueriesPerClient = 64;
    std::atomic<int> wrong{0};
    std::atomic<int> ok_answers{0};
    std::atomic<int> shed_answers{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(hash_combine64(0x2071E, static_cast<std::uint64_t>(c)));
        for (int q = 0; q < kQueriesPerClient; ++q) {
          const std::size_t g = rng.next_below(graphs.size());
          const serve::Response r = server.predict(graphs[g]);
          if (r.ok()) {
            ok_answers.fetch_add(1);
            if (r.label != expected[g]) wrong.fetch_add(1);
          } else {
            shed_answers.fetch_add(1);
            if (r.status.code() != serve::StatusCode::kOverloaded)
              wrong.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(wrong.load(), 0) << "max_queue=" << max_queue;
    EXPECT_EQ(ok_answers.load() + shed_answers.load(),
              kClients * kQueriesPerClient);
    if (max_queue == 0) {
      // Unbounded admission: nothing may be shed.
      EXPECT_EQ(shed_answers.load(), 0);
    }
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.rejected,
              static_cast<std::uint64_t>(shed_answers.load()));
  }
}

TEST(InferenceServerTest, SheddingUnderOverloadNeverCorruptsAdmittedResults) {
  // An async burst far beyond the bound: admitted answers must stay serial-
  // predict bits, everything must resolve (answered or refused), and the
  // admitted queue depth must never exceed the bound.
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x2A));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  serve::ServerConfig config;
  config.max_queue = 4;
  config.max_batch = 2;
  config.cache_capacity = 0;  // every admitted query = a forward
  config.background_loop = false;  // this thread drives the pump
  serve::InferenceServer server(model, config);

  constexpr int kBurst = 96;
  int rejected = 0;
  std::vector<std::pair<std::size_t, serve::InferenceServer::Future>>
      admitted;
  for (int q = 0; q < kBurst; ++q) {
    const std::size_t g =
        static_cast<std::size_t>(q) % graphs.size();
    serve::StatusOr<serve::InferenceServer::Future> submitted =
        server.submit(serve::Request(graphs[g]));
    if (!submitted.ok()) {
      EXPECT_EQ(submitted.status().code(),
                serve::StatusCode::kOverloaded);
      ++rejected;
      continue;
    }
    admitted.emplace_back(g, std::move(submitted).value());
  }
  int answered = 0, shed = 0, corrupted = 0;
  for (auto& [g, future] : admitted) {
    const serve::Response r = future.get();
    if (r.ok()) {
      ++answered;
      if (r.label != expected[g]) ++corrupted;
    } else {
      ++shed;
    }
  }
  EXPECT_EQ(corrupted, 0);
  EXPECT_EQ(answered + shed + rejected, kBurst);
  EXPECT_GT(answered, 0);
  // With nobody pumping during the burst, a bound of 4 must have refused
  // most of it; nothing it admitted is shed.
  EXPECT_EQ(shed, 0);
  EXPECT_GT(rejected, 0);
  const serve::ServerStats stats = server.stats();
  EXPECT_LE(stats.peak_queue, config.max_queue);
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(stats.source_shed, static_cast<std::uint64_t>(rejected));
  // A few suite regions share a fingerprint, so a submit whose twin is
  // still queued coalesces past the full queue instead of forwarding (the
  // cache is off); every admitted query is answered by one of the two.
  EXPECT_EQ(stats.forwards + stats.coalesced, admitted.size());
}

TEST(InferenceServerTest, QueueTimeDeadlineExpiresToDeadlineExceeded) {
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x5A));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  serve::ServerConfig config;
  config.background_loop = false;  // nothing pumps until we ask
  config.cache_capacity = 0;
  serve::InferenceServer server(model, config);

  serve::Request patient(graphs[0]);
  serve::Request hurried(graphs[1]);
  hurried.deadline_us = 1;  // expires while nobody is pumping
  serve::StatusOr<serve::InferenceServer::Future> first =
      server.submit(patient);
  serve::StatusOr<serve::InferenceServer::Future> second =
      server.submit(hurried);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // Collecting the patient request pumps the queue; the hurried one is
  // picked up by the same pump, found expired, and shed instead of
  // forwarded.
  const serve::Response r1 = first.value().get();
  const serve::Response r2 = second.value().get();
  EXPECT_TRUE(r1.ok());
  EXPECT_EQ(r1.label, expected[0]);
  EXPECT_EQ(r2.status.code(), serve::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r2.source, serve::Source::Shed);
  EXPECT_GE(r2.queue_us, 1);
  // Refused before a forward: the answer names no model.
  EXPECT_EQ(r1.model_version, serve::kModelVersion);
  EXPECT_EQ(r2.model_version, 0u);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.forwards, 1u);
}

// --- In-flight coalescing ---------------------------------------------------

TEST(InferenceServerTest, DuplicateInFlightQueriesCoalesceOntoOneForward) {
  // A flash crowd on one cold fingerprint: with no background loop nothing
  // pumps until the first get(), so every duplicate submit must attach to
  // the leader — one forward answers all six, whether one thread submits
  // the whole crowd or every client submits from its own thread.
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x21));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 64;
  constexpr int kCrowd = 6;

  for (bool concurrent : {false, true}) {
    serve::InferenceServer server(model, config);
    std::vector<serve::InferenceServer::Future> futures(kCrowd);
    auto submit = [&](int i) {
      auto submitted = server.submit(serve::Request(graphs[2]));
      if (submitted.ok()) futures[i] = std::move(submitted).value();
    };
    if (concurrent) {
      std::vector<std::thread> crowd;
      for (int i = 0; i < kCrowd; ++i) crowd.emplace_back(submit, i);
      for (auto& t : crowd) t.join();
    } else {
      for (int i = 0; i < kCrowd; ++i) submit(i);
    }
    bool saw_batch = false;
    for (auto& f : futures) {
      ASSERT_TRUE(f.valid()) << "concurrent=" << concurrent;
      const serve::Response r = f.get();
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.label, expected[2]);  // bit-identical to serial predict
      EXPECT_EQ(r.model_version, serve::kModelVersion);
      EXPECT_GE(r.queue_us, 0);
      if (r.source == serve::Source::Batch)
        saw_batch = true;  // exactly the leader
      else
        EXPECT_EQ(r.source, serve::Source::Coalesced);
    }
    EXPECT_TRUE(saw_batch);

    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.queries, 6u);
    EXPECT_EQ(stats.forwards, 1u) << "concurrent=" << concurrent;
    EXPECT_EQ(stats.coalesced, 5u);
    EXPECT_EQ(stats.source_batch, 1u);
    EXPECT_EQ(stats.source_coalesced, 5u);
    EXPECT_EQ(stats.cache.misses, 1u);  // only the leader missed
    EXPECT_EQ(stats.cache.hits, 0u);
    EXPECT_EQ(stats.cache.hits + stats.cache.misses + stats.coalesced,
              stats.queries);
  }
}

TEST(InferenceServerTest, AbandonedLeaderStillAnswersItsWaiters) {
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x22));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 64;
  serve::InferenceServer server(model, config);

  auto leader = server.submit(serve::Request(graphs[0]));
  ASSERT_TRUE(leader.ok());
  auto w1 = server.submit(serve::Request(graphs[0]));
  auto w2 = server.submit(serve::Request(graphs[0]));
  ASSERT_TRUE(w1.ok() && w2.ok());
  {
    serve::InferenceServer::Future dropped = std::move(leader).value();
    // destroyed unresolved: the leader is abandoned while its waiters live
  }
  serve::Response r1 = w1.value().get();  // this get() drives the pump
  serve::Response r2 = w2.value().get();
  EXPECT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.label, expected[0]);
  EXPECT_EQ(r2.label, expected[0]);
  EXPECT_EQ(r1.source, serve::Source::Coalesced);
  EXPECT_EQ(r2.source, serve::Source::Coalesced);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.forwards, 1u);
  EXPECT_EQ(stats.coalesced, 2u);
}

TEST(InferenceServerTest, ShutdownDrainAnswersPendingWaiters) {
  // then() continuations on a leader and two waiters, nothing pumping:
  // the destructor's drain must answer all three exactly once.
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x25));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  std::atomic<int> fired{0};
  std::atomic<int> wrong{0};
  {
    serve::ServerConfig config;
    config.background_loop = false;
    config.cache_capacity = 64;
    serve::InferenceServer server(model, config);
    for (int i = 0; i < 3; ++i) {
      auto submitted = server.submit(serve::Request(graphs[4]));
      ASSERT_TRUE(submitted.ok());
      submitted.value().then([&fired, &wrong,
                              &expected](const serve::Response& r) {
        if (!r.ok() || r.label != expected[4]) wrong.fetch_add(1);
        fired.fetch_add(1);
      });
    }
    EXPECT_EQ(fired.load(), 0);  // nobody has pumped yet
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.coalesced, 2u);
  }  // ~InferenceServer -> shutdown drain
  EXPECT_EQ(fired.load(), 3);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(InferenceServerTest, CoalescedWaiterBypassesAFullQueue) {
  // A duplicate of the one queued query attaches to it past the full
  // queue; a distinct newcomer is refused and leaves the leader alone.
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x26));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 64;
  config.max_queue = 1;
  serve::InferenceServer server(model, config);

  auto leader = server.submit(serve::Request(graphs[0]));
  ASSERT_TRUE(leader.ok());
  auto waiter = server.submit(serve::Request(graphs[0]));  // coalesces
  ASSERT_TRUE(waiter.ok());

  // A sync predict is refused at once, folded into a Response that names
  // no model: nothing forwarded it.
  const serve::Response newcomer = server.predict(graphs[1]);
  EXPECT_EQ(newcomer.status.code(), serve::StatusCode::kOverloaded);
  EXPECT_EQ(newcomer.source, serve::Source::Shed);
  EXPECT_EQ(newcomer.model_version, 0u);

  EXPECT_EQ(waiter.value().get().label, expected[0]);
  EXPECT_EQ(leader.value().get().label, expected[0]);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.forwards, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.source_shed, 1u);  // the refusal alone
  EXPECT_EQ(stats.peak_queue, 1u);
}

// --- Future move semantics --------------------------------------------------

TEST(InferenceServerFutureTest, MoveFullyDisarmsTheSource) {
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x2B));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 64;
  serve::InferenceServer server(model, config);

  // Pending future: construct + assign moves leave the source invalid.
  auto submitted = server.submit(serve::Request(graphs[0]));
  ASSERT_TRUE(submitted.ok());
  serve::InferenceServer::Future a = std::move(submitted).value();
  EXPECT_TRUE(a.valid());
  serve::InferenceServer::Future b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  a = std::move(b);  // assign back into the moved-from handle
  EXPECT_FALSE(b.valid());
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(a.get().label, expected[0]);

  // Ready (cache-hit) future: moving transfers the stored response once.
  auto hit = server.submit(serve::Request(graphs[0]));
  ASSERT_TRUE(hit.ok());
  serve::InferenceServer::Future c = std::move(hit).value();
  serve::InferenceServer::Future d = std::move(c);
  EXPECT_FALSE(c.valid());
  ASSERT_TRUE(d.valid());
  const serve::Response r = d.get();
  EXPECT_EQ(r.label, expected[0]);
  EXPECT_EQ(r.source, serve::Source::Cache);
}

TEST(InferenceServerFutureTest, AbandonAfterMoveReleasesTheRightSlot) {
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x2C));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 0;
  serve::InferenceServer server(model, config);

  auto submitted = server.submit(serve::Request(graphs[1]));
  ASSERT_TRUE(submitted.ok());
  {
    serve::InferenceServer::Future moved_from = std::move(submitted).value();
    serve::InferenceServer::Future owner = std::move(moved_from);
    // moved_from's destructor must be a no-op; owner's abandons the slot.
  }
  // The abandoned query is still answered by the next pump and its slot
  // recycles; later queries are unaffected.
  EXPECT_EQ(server.predict(graphs[2]).label, expected[2]);
  EXPECT_EQ(server.predict(graphs[1]).label, expected[1]);
}

/// The first `n` keys from 0 up that shard_index puts in key 0's shard, so
/// a test can drive one shard's LRU order directly.
std::vector<std::uint64_t> keys_in_one_shard(std::size_t n) {
  constexpr std::size_t kShards = serve::PredictionCache::kShards;
  const std::size_t shard = serve::PredictionCache::shard_index(0, kShards);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < n; ++k)
    if (serve::PredictionCache::shard_index(k, kShards) == shard)
      keys.push_back(k);
  return keys;
}

TEST(PredictionCacheTest, LRUEvictionAndStats) {
  // 8 shards of 4 entries; every key below lands in one shard.
  serve::PredictionCache cache(serve::PredictionCache::kShards * 4);
  ASSERT_EQ(cache.capacity(), 32u);
  const std::vector<std::uint64_t> key = keys_in_one_shard(6);
  int label = -1;
  EXPECT_FALSE(cache.lookup(key[5], &label));
  for (int i = 0; i < 4; ++i) cache.insert(key[i], i + 100);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(cache.lookup(key[i], &label));
    EXPECT_EQ(label, i + 100);
  }
  // key[0..3] were re-touched in order; inserting key[4] must evict key[0]
  // (the shard's LRU).
  cache.insert(key[4], 104);
  EXPECT_FALSE(cache.lookup(key[0], &label));
  EXPECT_TRUE(cache.lookup(key[4], &label));
  EXPECT_TRUE(cache.lookup(key[1], &label));
  // Touch key[2] then insert again: key[3] is now least recent.
  EXPECT_TRUE(cache.lookup(key[2], &label));
  cache.insert(key[5], 105);
  EXPECT_FALSE(cache.lookup(key[3], &label));

  serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.insertions, 6u);
  EXPECT_EQ(stats.hits, 7u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(PredictionCacheTest, ZeroCapacityDisables) {
  serve::PredictionCache cache(0);
  int label = -1;
  cache.insert(7, 1);
  EXPECT_FALSE(cache.lookup(7, &label));
  EXPECT_FALSE(cache.lookup(8, &label, /*count_miss=*/false));
  cache.note_miss(8);
  // Disabled, but still counting: every miss is recorded once.
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(InferenceServerTest, DisabledCacheKeepsConservation) {
  // cache_capacity = 0 with concurrent duplicate queries: every query is
  // still exactly one miss or one coalesced waiter, every miss costs one
  // forward, and the answers stay bit-identical to serial predict.
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0x0C));
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();
  for (bool background : {false, true}) {
    serve::ServerConfig config;
    config.background_loop = background;
    config.cache_capacity = 0;
    serve::InferenceServer server(model, config);

    constexpr int kClients = 4;
    constexpr int kQueriesPerClient = 40;
    std::vector<std::thread> clients;
    std::atomic<int> wrong{0};
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(hash_combine64(0xD0C0, static_cast<std::uint64_t>(c)));
        for (int q = 0; q < kQueriesPerClient; ++q) {
          const std::size_t g = rng.next_below(3);  // heavy duplication
          const serve::Response r = server.predict(graphs[g]);
          if (!r.ok() || r.label != expected[g]) wrong.fetch_add(1);
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(wrong.load(), 0) << "background=" << background;

    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.queries,
              static_cast<std::uint64_t>(kClients * kQueriesPerClient));
    EXPECT_EQ(stats.cache.hits, 0u);
    EXPECT_EQ(stats.cache.hits + stats.cache.misses + stats.coalesced,
              stats.queries)
        << "background=" << background;
    EXPECT_EQ(stats.forwards + stats.coalesced, stats.queries)
        << "background=" << background;
  }
}

TEST(PredictionCacheTest, ShardedCapacityHolds) {
  // 8 shards of 8 entries: sequential keys fill every shard.
  serve::PredictionCache cache(64);
  EXPECT_EQ(cache.capacity(), 64u);
  for (std::uint64_t k = 0; k < 10000; ++k)
    cache.insert(k, static_cast<int>(k % 7));
  EXPECT_EQ(cache.stats().entries, 64u);
  EXPECT_EQ(cache.stats().insertions, 10000u);
  EXPECT_EQ(cache.stats().evictions, 10000u - 64u);
}

TEST(PredictionCacheTest, DuplicateInsertCountsARefreshNotAnInsertion) {
  serve::PredictionCache cache(4);
  cache.insert(7, 1);
  cache.insert(7, 1);  // racing double-insert of the same fingerprint
  cache.insert(7, 2);  // a refresh stores the label it is given
  serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.refreshes, 2u);
  EXPECT_EQ(stats.entries, 1u);
  int label = -1;
  EXPECT_TRUE(cache.lookup(7, &label));
  EXPECT_EQ(label, 2);

  // The accounting identity the refresh counter exists to protect:
  // insertions - evictions == entries, under any insert/evict/refresh mix.
  for (std::uint64_t k = 0; k < 100; ++k) cache.insert(k % 10, 0);
  stats = cache.stats();
  EXPECT_EQ(stats.insertions - stats.evictions, stats.entries);
}

TEST(InferenceServerTest, EmptyGraphIsRejectedBeforeAdmission) {
  // A zero-node graph has nothing to predict for: it must be refused as
  // InvalidArgument BEFORE costing a queue slot, a cache probe or even the
  // query counter — validation failures appear in no conservation law.
  auto model = std::make_shared<const gnn::StaticModel>(small_config(0xE0));
  serve::ServerConfig config;
  config.background_loop = false;
  serve::InferenceServer server(model, config);

  const graph::ProgramGraph empty;
  ASSERT_EQ(empty.num_nodes(), 0);

  serve::StatusOr<serve::InferenceServer::Future> submitted =
      server.submit(serve::Request(empty));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), serve::StatusCode::kInvalidArgument);

  const serve::Response r = server.predict(empty);
  EXPECT_EQ(r.status.code(), serve::StatusCode::kInvalidArgument);
  EXPECT_EQ(r.source, serve::Source::Shed);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.invalid_arguments, 2u);
  EXPECT_EQ(stats.queries, 0u) << "invalid requests are not queries";
  EXPECT_EQ(stats.forwards, 0u);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 0u)
      << "rejected before the cache probe";
  // A valid query afterwards is entirely unaffected.
  EXPECT_TRUE(server.predict(test_graphs()[0]).ok());
}

TEST(PredictionCacheTest, ShardIndexMixesTheFullKey) {
  // The old shard choice used only the top 8 bits ((key >> 56) % shards):
  // sequential keys — and any key population with a constant high byte,
  // like small counters — all collapsed into one shard, shrinking the
  // effective capacity to a single shard's and serializing every lookup on
  // one mutex. The mix must reach every shard from low-entropy keys, at
  // the fixed 8 shards and at a small cache's clamped count (5).
  for (std::size_t shards : {serve::PredictionCache::kShards,
                             std::size_t{5}}) {
    std::vector<bool> seen(shards, false);
    std::size_t distinct = 0;
    for (std::uint64_t k = 0; k < 1000 && distinct < shards; ++k) {
      const std::size_t s = serve::PredictionCache::shard_index(k, shards);
      ASSERT_LT(s, shards);
      if (!seen[s]) {
        seen[s] = true;
        ++distinct;
      }
    }
    EXPECT_EQ(distinct, shards) << shards << " shards";
  }

  // End to end: sequential keys must fill the whole sharded capacity, not
  // one shard's slice (3000/8 = 375 entries under the old scheme), and a
  // cache below 8 entries keeps its exact capacity, one entry per shard.
  for (std::size_t capacity : {std::size_t{3000}, std::size_t{5}}) {
    serve::PredictionCache cache(capacity);
    EXPECT_EQ(cache.capacity(), capacity);
    for (std::uint64_t k = 0; k < 20000; ++k)
      cache.insert(k, static_cast<int>(k & 3));
    EXPECT_EQ(cache.stats().entries, capacity);
    EXPECT_EQ(cache.stats().insertions - cache.stats().evictions,
              cache.stats().entries);
  }
}

}  // namespace
}  // namespace irgnn
