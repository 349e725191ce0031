// serve::Router tests: the determinism contract under the typed front door
// — every *admitted* response is bit-identical to a serial
// StaticModel::predict of the named model, for every shed policy, queue
// bound, model mix and client count — plus routing failures
// (ModelNotFound), shedding under overload never corrupting admitted
// results, hot-swap during shedding, the Block policy's queue bound, and
// queue-time deadlines. Runs under TSan in CI with the other serve
// binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "serve/router.h"
#include "support/rng.h"
#include "workloads/suite.h"

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

serve::ModelPtr make_model(std::uint64_t seed) {
  return std::make_shared<const gnn::StaticModel>(small_config(seed));
}

std::vector<int> serial_predict(const gnn::StaticModel& model) {
  std::vector<const graph::ProgramGraph*> ptrs;
  for (const auto& g : test_graphs()) ptrs.push_back(&g);
  return model.predict(ptrs);
}

TEST(RouterTest, RoutesByNameAndReportsModelNotFound) {
  auto model_a = make_model(0xA);
  auto model_b = make_model(0xB);
  const std::vector<int> expected_a = serial_predict(*model_a);
  const std::vector<int> expected_b = serial_predict(*model_b);
  ASSERT_NE(expected_a, expected_b);  // nudge the seeds if this ever flakes
  const auto& graphs = test_graphs();

  serve::Router router;

  // Nothing published yet: everything is ModelNotFound, never a throw.
  serve::Response none = router.predict(serve::Request(graphs[0], "snb"));
  EXPECT_EQ(none.status.code(), serve::StatusCode::kModelNotFound);
  EXPECT_EQ(none.source, serve::Source::Shed);

  EXPECT_EQ(router.publish("snb", model_a), 1u);
  // One model: an unnamed request routes to it.
  EXPECT_TRUE(router.predict(serve::Request(graphs[0])).ok());

  EXPECT_EQ(router.publish("skl", model_b), 1u);
  EXPECT_EQ(router.models(), (std::vector<std::string>{"skl", "snb"}));

  // Two models: each name gets its own model's serial bits, for every
  // graph, including repeats from each model's own version-keyed cache.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const serve::Response a =
          router.predict(serve::Request(graphs[g], "snb"));
      const serve::Response b =
          router.predict(serve::Request(graphs[g], "skl"));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.label, expected_a[g]);
      EXPECT_EQ(b.label, expected_b[g]);
    }
  }

  // Unknown and ambiguous names are typed failures; submit() reports them
  // before a Future ever exists.
  EXPECT_EQ(router.predict(serve::Request(graphs[0], "haswell")).status.code(),
            serve::StatusCode::kModelNotFound);
  EXPECT_EQ(router.predict(serve::Request(graphs[0])).status.code(),
            serve::StatusCode::kModelNotFound);
  serve::StatusOr<serve::InferenceServer::Future> submitted =
      router.submit(serve::Request(graphs[0], "haswell"));
  EXPECT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), serve::StatusCode::kModelNotFound);

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.model_not_found, 4u);
  EXPECT_EQ(stats.models.size(), 2u);
  EXPECT_EQ(stats.shed + stats.rejected + stats.deadline_exceeded, 0u);

  // Retire stops routing; the other model keeps serving.
  EXPECT_TRUE(router.retire("snb"));
  EXPECT_FALSE(router.retire("snb"));
  EXPECT_EQ(router.predict(serve::Request(graphs[0], "snb")).status.code(),
            serve::StatusCode::kModelNotFound);
  EXPECT_EQ(router.predict(serve::Request(graphs[0], "skl")).label,
            expected_b[0]);
  // Retired traffic stays in the totals.
  EXPECT_GE(router.stats().queries, 4 * graphs.size());
}

TEST(RouterTest, AdmittedResponsesBitIdenticalForEveryPolicyAndBound) {
  // The pinned determinism contract: N concurrent clients over two models
  // behind one router, for every shed policy and several queue bounds —
  // every response that comes back Ok must equal the named model's serial
  // predict of that graph. Shedding may remove answers, never change them.
  auto model_a = make_model(0x1A);
  auto model_b = make_model(0x1B);
  const std::vector<int> expected_a = serial_predict(*model_a);
  const std::vector<int> expected_b = serial_predict(*model_b);
  const auto& graphs = test_graphs();

  for (serve::ShedPolicy policy :
       {serve::ShedPolicy::Reject, serve::ShedPolicy::DropOldest,
        serve::ShedPolicy::Block}) {
    for (std::size_t max_queue : {std::size_t{0}, std::size_t{2},
                                  std::size_t{16}}) {
      serve::RouterConfig config;
      config.max_queue = max_queue;
      config.shed_policy = policy;
      config.server.max_batch = 4;
      config.server.cache_capacity = 16;
      serve::Router router(config);
      router.publish("a", model_a);
      router.publish("b", model_b);

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
            const bool use_a = (rng.next_below(2) == 0);
            const serve::Response r = router.predict(
                serve::Request(graphs[g], use_a ? "a" : "b"));
            if (r.ok()) {
              ok_answers.fetch_add(1);
              const int want = use_a ? expected_a[g] : expected_b[g];
              if (r.label != want) wrong.fetch_add(1);
            } else {
              shed_answers.fetch_add(1);
              if (r.status.code() != serve::StatusCode::kOverloaded)
                wrong.fetch_add(1);
            }
          }
        });
      }
      for (auto& t : clients) t.join();
      EXPECT_EQ(wrong.load(), 0)
          << "policy=" << serve::shed_policy_name(policy)
          << " max_queue=" << max_queue;
      EXPECT_EQ(ok_answers.load() + shed_answers.load(),
                kClients * kQueriesPerClient);
      if (max_queue == 0 || policy == serve::ShedPolicy::Block) {
        // Unbounded or blocking admission: nothing may be shed.
        EXPECT_EQ(shed_answers.load(), 0)
            << "policy=" << serve::shed_policy_name(policy)
            << " max_queue=" << max_queue;
      }
      const serve::RouterStats stats = router.stats();
      EXPECT_EQ(stats.shed + stats.rejected,
                static_cast<std::uint64_t>(shed_answers.load()));
    }
  }
}

TEST(RouterTest, SheddingUnderOverloadNeverCorruptsAdmittedResults) {
  // An async burst far beyond the bound: admitted answers must stay serial-
  // predict bits, everything must resolve (answered or shed), and the
  // admitted queue depth must never exceed the bound.
  auto model = make_model(0x2A);
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  for (serve::ShedPolicy policy :
       {serve::ShedPolicy::Reject, serve::ShedPolicy::DropOldest}) {
    serve::RouterConfig config;
    config.max_queue = 4;
    config.shed_policy = policy;
    config.server.max_batch = 2;
    config.server.cache_capacity = 0;  // every admitted query = a forward
    config.server.background_loop = false;  // this thread drives the pump
    serve::Router router(config);
    router.publish("m", model);

    constexpr int kBurst = 96;
    int rejected = 0;
    std::vector<std::pair<std::size_t, serve::InferenceServer::Future>>
        admitted;
    for (int q = 0; q < kBurst; ++q) {
      const std::size_t g =
          static_cast<std::size_t>(q) % graphs.size();
      serve::StatusOr<serve::InferenceServer::Future> submitted =
          router.submit(serve::Request(graphs[g], "m"));
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
        EXPECT_EQ(r.status.code(), serve::StatusCode::kOverloaded);
        EXPECT_EQ(r.source, serve::Source::Shed);
        ++shed;
      }
    }
    EXPECT_EQ(corrupted, 0) << serve::shed_policy_name(policy);
    EXPECT_EQ(answered + shed + rejected, kBurst);
    EXPECT_GT(answered, 0);
    // With nobody pumping during the burst, a bound of 4 must have shed
    // (DropOldest admits the newcomer and drops a victim) or rejected
    // (Reject refuses the newcomer) most of it.
    if (policy == serve::ShedPolicy::Reject) {
      EXPECT_EQ(shed, 0);
      EXPECT_GT(rejected, 0);
    }
    if (policy == serve::ShedPolicy::DropOldest) {
      EXPECT_EQ(rejected, 0);
      EXPECT_GT(shed, 0);
    }
    const serve::RouterStats stats = router.stats();
    EXPECT_LE(stats.models[0].stats.peak_queue, config.max_queue);
    EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
    EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(rejected));
  }
}

TEST(RouterTest, HotSwapDuringSheddingKeepsEveryAnswerOnePublication) {
  auto model_a = make_model(0x3A);
  auto model_b = make_model(0x3B);
  const std::vector<int> expected_a = serial_predict(*model_a);
  const std::vector<int> expected_b = serial_predict(*model_b);
  ASSERT_NE(expected_a, expected_b);
  const auto& graphs = test_graphs();

  serve::RouterConfig config;
  config.max_queue = 3;
  config.shed_policy = serve::ShedPolicy::DropOldest;
  config.server.max_batch = 4;
  config.server.cache_capacity = 64;
  serve::Router router(config);
  router.publish("m", model_a);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 150;
  std::atomic<int> wrong{0};
  std::atomic<int> resolved{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(hash_combine64(0x50AB, static_cast<std::uint64_t>(c)));
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::size_t g = rng.next_below(graphs.size());
        const serve::Response r =
            router.predict(serve::Request(graphs[g], "m"));
        if (r.ok()) {
          // Exactly one publication's serial bits — never a mix, even
          // while the queue is shedding around the swap.
          if (r.label != expected_a[g] && r.label != expected_b[g])
            wrong.fetch_add(1);
        } else if (r.status.code() != serve::StatusCode::kOverloaded) {
          wrong.fetch_add(1);
        }
        resolved.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t v2 = router.publish("m", model_b);
  EXPECT_EQ(v2, 2u);
  for (auto& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(resolved.load(), kClients * kQueriesPerClient);

  // Quiesced: the new model answers, never the retired publication's cache.
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    serve::Response r = router.predict(serve::Request(graphs[g], "m"));
    // Drain any shedding backwash: retry the rare Overloaded result.
    while (!r.ok()) r = router.predict(serve::Request(graphs[g], "m"));
    EXPECT_EQ(r.label, expected_b[g]);
    EXPECT_EQ(r.model_version, v2);
  }
}

TEST(RouterTest, DropOldestShedsLowestPriorityAndRejectsOutrankedNewcomers) {
  // Deterministic single-threaded shedding: background_loop off and nobody
  // pumping, so the queue evolves exactly as admission control dictates.
  auto model = make_model(0x6A);
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 0;
  config.max_queue = 3;
  config.shed_policy = serve::ShedPolicy::DropOldest;
  serve::InferenceServer server(model, config);

  auto submit_with = [&](std::size_t g, serve::Priority priority) {
    serve::Request request(graphs[g]);
    request.priority = priority;
    return server.submit(request);
  };

  // Fill the queue: [High(0), Low(1), High(2)].
  auto high1 = submit_with(0, serve::Priority::High);
  auto low1 = submit_with(1, serve::Priority::Low);
  auto high2 = submit_with(2, serve::Priority::High);
  ASSERT_TRUE(high1.ok());
  ASSERT_TRUE(low1.ok());
  ASSERT_TRUE(high2.ok());

  // A Normal newcomer sheds the oldest of the LOWEST priority class — the
  // Low request, not the older High one.
  auto normal1 = submit_with(3, serve::Priority::Normal);
  ASSERT_TRUE(normal1.ok());
  const serve::Response dropped = low1.value().get();
  EXPECT_EQ(dropped.status.code(), serve::StatusCode::kOverloaded);
  EXPECT_EQ(dropped.source, serve::Source::Shed);

  // A Low newcomer is outranked by everything queued (High, High, Normal):
  // it is rejected instead of promoting itself over admitted work.
  auto low2 = submit_with(4, serve::Priority::Low);
  EXPECT_FALSE(low2.ok());
  EXPECT_EQ(low2.status().code(), serve::StatusCode::kOverloaded);

  // The survivors answer with their serial bits.
  EXPECT_EQ(high1.value().get().label, expected[0]);
  EXPECT_EQ(high2.value().get().label, expected[2]);
  EXPECT_EQ(normal1.value().get().label, expected[3]);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.forwards, 3u);
  EXPECT_EQ(stats.peak_queue, 3u);
  EXPECT_EQ(stats.source_shed, 2u);
}

TEST(RouterTest, BlockPolicyBoundsQueueAndAnswersEverything) {
  auto model = make_model(0x4A);
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  serve::RouterConfig config;
  config.max_queue = 3;
  config.shed_policy = serve::ShedPolicy::Block;
  config.server.max_batch = 2;
  config.server.cache_capacity = 0;
  config.server.background_loop = false;  // the submitter must self-pump
  serve::Router router(config);
  router.publish("m", model);

  // A single thread async-submitting past the bound: Block admits
  // everything (pumping while it waits for space) and nothing is shed.
  std::vector<std::pair<std::size_t, serve::InferenceServer::Future>> futures;
  for (int q = 0; q < 40; ++q) {
    const std::size_t g = static_cast<std::size_t>(q) % graphs.size();
    serve::StatusOr<serve::InferenceServer::Future> submitted =
        router.submit(serve::Request(graphs[g], "m"));
    ASSERT_TRUE(submitted.ok()) << submitted.status().code_name();
    futures.emplace_back(g, std::move(submitted).value());
  }
  for (auto& [g, future] : futures) {
    const serve::Response r = future.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.label, expected[g]);
  }
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.shed + stats.rejected, 0u);
  EXPECT_LE(stats.models[0].stats.peak_queue, config.max_queue);
  // A few suite regions share a fingerprint, so a submit whose twin is
  // still queued coalesces instead of forwarding (the cache is off);
  // either way every query is answered by exactly one of the two.
  EXPECT_EQ(stats.forwards + stats.coalesced, 40u);
}

TEST(RouterTest, CoalescingFoldsIntoRouterStats) {
  auto model = make_model(0x7A);
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  serve::RouterConfig config;
  config.max_queue = 0;  // nothing may shed in this test
  config.server.background_loop = false;
  config.server.cache_capacity = 64;
  serve::Router router(config);
  router.publish("m", model);

  // Duplicate in-flight submits through the router coalesce on the routed
  // server: one forward answers both.
  auto leader = router.submit(serve::Request(graphs[2], "m"));
  auto waiter = router.submit(serve::Request(graphs[2], "m"));
  ASSERT_TRUE(leader.ok() && waiter.ok());
  const serve::Response rw = waiter.value().get();
  EXPECT_EQ(rw.label, expected[2]);
  EXPECT_EQ(rw.source, serve::Source::Coalesced);
  EXPECT_EQ(leader.value().get().label, expected[2]);

  EXPECT_EQ(router.predict(serve::Request(graphs[0], "m")).label,
            expected[0]);
  const serve::Response hit = router.predict(serve::Request(graphs[0], "m"));
  EXPECT_EQ(hit.label, expected[0]);
  EXPECT_EQ(hit.source, serve::Source::Cache);

  const serve::RouterStats live = router.stats();
  EXPECT_EQ(live.queries, 4u);
  EXPECT_EQ(live.coalesced, 1u);
  EXPECT_EQ(live.source_coalesced, 1u);
  EXPECT_EQ(live.cache_hits, 1u);
  EXPECT_EQ(live.forwards, 2u);

  // Retiring the model folds its coalescing traffic into the retained
  // totals — router stats survive the server they came from.
  ASSERT_TRUE(router.retire("m"));
  const serve::RouterStats folded = router.stats();
  EXPECT_TRUE(folded.models.empty());
  EXPECT_EQ(folded.coalesced, 1u);
  EXPECT_EQ(folded.source_coalesced, 1u);
  EXPECT_EQ(folded.cache_hits, 1u);
  EXPECT_EQ(folded.queries, 4u);
}

TEST(RouterTest, QueueTimeDeadlineExpiresToDeadlineExceeded) {
  auto model = make_model(0x5A);
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
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.forwards, 1u);
}

TEST(RouterTest, RetireRacingAClientNeverResurrectsTheOldModel) {
  // A retire() racing a client's in-flight leaders must drain them with the
  // dying server — and a fresh publish under the SAME name must answer with
  // the new model's bits and version, never a leftover of the old one.
  auto old_model = make_model(0x01D);
  auto new_model = make_model(0x2E11);
  const std::vector<int> expected_old = serial_predict(*old_model);
  const std::vector<int> expected_new = serial_predict(*new_model);
  ASSERT_NE(expected_old, expected_new);  // nudge the seeds if this flakes
  const auto& graphs = test_graphs();

  for (int round = 0; round < 8; ++round) {
    serve::RouterConfig config;
    config.server.cache_capacity = 64;
    serve::Router router(config);
    router.publish("m", old_model);

    std::thread client([&] {
      // Touch a few graphs: each miss is a leader on the background loop,
      // in flight while the main thread retires.
      for (int q = 0; q < 4; ++q)
        (void)router.predict(
            serve::Request(graphs[static_cast<std::size_t>(q) * 3]));
    });
    router.retire("m");  // races the client's leaders
    client.join();

    const std::uint64_t v = router.publish("m", new_model);
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const serve::Response r = router.predict(serve::Request(graphs[g]));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.label, expected_new[g]) << "stale answer, round " << round;
      EXPECT_EQ(r.model_version, v);
    }
    router.shutdown();
  }
}

TEST(RouterTest, RetryPolicyNeverRetriesDeterministicFailures) {
  // The retry layer in the default build (no fault injection): failures
  // that retrying cannot fix must come back immediately, with zero retries
  // spent — Overloaded above all (retrying a shed amplifies the overload
  // the shed was shedding), and ModelNotFound (deterministic).
  auto model = make_model(0x0F);
  const auto& graphs = test_graphs();

  serve::RouterConfig config;
  config.max_queue = 1;
  config.shed_policy = serve::ShedPolicy::Reject;
  config.server.background_loop = false;
  config.server.cache_capacity = 0;
  config.server.coalesce = false;
  serve::Router router(config);
  router.publish("m", model);

  serve::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_us = 0;  // a retry would be instant — and visible

  // Unknown model: one attempt, ModelNotFound, no retries.
  const serve::Response missing =
      router.predict(serve::Request(graphs[0], "nope"), policy);
  EXPECT_EQ(missing.status.code(), serve::StatusCode::kModelNotFound);
  EXPECT_EQ(router.stats().retries, 0u);

  // Fill the 1-deep queue with an unpumped future (background_loop off:
  // nothing drains until we collect it), then predict with retries armed:
  // the Overloaded shed must NOT be retried.
  serve::StatusOr<serve::InferenceServer::Future> parked =
      router.submit(serve::Request(graphs[1]));
  ASSERT_TRUE(parked.ok());
  const serve::Response shed =
      router.predict(serve::Request(graphs[2]), policy);
  EXPECT_EQ(shed.status.code(), serve::StatusCode::kOverloaded);
  EXPECT_EQ(shed.source, serve::Source::Shed);

  const serve::Response parked_answer = parked.value().get();
  EXPECT_TRUE(parked_answer.ok());

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.retry_requests, 2u);
  EXPECT_EQ(stats.retries, 0u)
      << "a deterministic failure was retried — wasted forwards";
  EXPECT_EQ(stats.retry_successes, 0u);
  EXPECT_EQ(stats.rejected, 1u) << "exactly one admission attempt was made";
}

}  // namespace
}  // namespace irgnn
