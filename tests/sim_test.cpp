// Tests for the machine simulator: cache/LRU behaviour, each prefetcher,
// the shared-L1 lockstep of prefetcher variants, the configuration space
// enumeration (320 / 288), NUMA timing properties, counters, label
// reduction and cross-architecture translation. The parameterized sweeps
// check mechanistic invariants across the whole configuration space.
#include <algorithm>
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "support/rng.h"

#include "sim/cache.h"
#include "sim/config.h"
#include "sim/exploration.h"
#include "sim/simulator.h"
#include "sim/workload_model.h"
#include "workloads/suite.h"

namespace irgnn::sim {
namespace {

TEST(CacheTest, LruEviction) {
  // 2 sets x 2 ways of 64B lines = 256 bytes.
  SetAssociativeCache cache(256, 2, 64);
  ASSERT_EQ(cache.num_sets(), 2);
  // Lines 0, 2, 4 map to set 0; two fit, the third evicts the LRU (0).
  cache.insert_if_absent(0, false);
  cache.insert_if_absent(2, false);
  EXPECT_TRUE(cache.access(0));  // touch 0: now 2 is LRU
  cache.insert_if_absent(4, false);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(4));
}

TEST(CacheTest, FusedAccessReportsPrefetchTagOnceThenClearsIt) {
  SetAssociativeCache cache(1024, 4, 64);
  bool was_prefetched = false;
  EXPECT_FALSE(cache.access(7, &was_prefetched));  // miss: nothing reported
  EXPECT_FALSE(was_prefetched);
  cache.insert_if_absent(7, /*prefetched=*/true);
  EXPECT_TRUE(cache.access(7, &was_prefetched));
  EXPECT_TRUE(was_prefetched);
  EXPECT_TRUE(cache.access(7, &was_prefetched));  // the demand hit cleared it
  EXPECT_FALSE(was_prefetched);
  cache.insert_if_absent(9, /*prefetched=*/false);
  EXPECT_TRUE(cache.access(9, &was_prefetched));
  EXPECT_FALSE(was_prefetched);
}

TEST(CacheTest, InsertIfAbsentNeitherDoubleInsertsNorRefreshesLru) {
  // 1 set x 4 ways.
  SetAssociativeCache cache(256, 4, 64);
  ASSERT_EQ(cache.num_sets(), 1);
  EXPECT_TRUE(cache.insert_if_absent(1, false));
  // Re-inserting a resident line is refused and touches nothing.
  EXPECT_FALSE(cache.insert_if_absent(1, false));
  EXPECT_FALSE(cache.insert_if_absent(1, true));
  for (std::uint64_t line : {2, 3, 4})
    EXPECT_TRUE(cache.insert_if_absent(line, false));
  for (std::uint64_t line : {1, 2, 3, 4})
    EXPECT_TRUE(cache.contains(line)) << line;
  // 1 is still the LRU way, so 5 evicts it and nothing else.
  EXPECT_TRUE(cache.insert_if_absent(5, false));
  EXPECT_FALSE(cache.contains(1));
  for (std::uint64_t line : {2, 3, 4, 5})
    EXPECT_TRUE(cache.contains(line)) << line;
}

TEST(CacheTest, InsertIfAbsentLeavesThePrefetchTagAlone) {
  SetAssociativeCache cache(1024, 4, 64);
  EXPECT_TRUE(cache.insert_if_absent(7, /*prefetched=*/true));
  EXPECT_FALSE(cache.insert_if_absent(7, /*prefetched=*/false));
  EXPECT_TRUE(cache.insert_if_absent(8, /*prefetched=*/false));
  EXPECT_FALSE(cache.insert_if_absent(8, /*prefetched=*/true));
  bool was_prefetched = false;
  EXPECT_TRUE(cache.access(7, &was_prefetched));
  EXPECT_TRUE(was_prefetched);
  EXPECT_TRUE(cache.access(8, &was_prefetched));
  EXPECT_FALSE(was_prefetched);
}

TEST(CacheTest, GeometryMustGivePowerOfTwoSets) {
  EXPECT_THROW(SetAssociativeCache(3 * 64 * 2, 2, 64), std::invalid_argument);
  EXPECT_THROW(SetAssociativeCache(64, 2, 64), std::invalid_argument);
  for (const auto& machine :
       {MachineDesc::sandy_bridge(), MachineDesc::skylake()}) {
    EXPECT_NO_THROW(CoreCacheModel(machine, PrefetcherConfig{}))
        << machine.name;
  }
}

MemoryAccess make_access(std::uint64_t address, std::uint32_t pc = 1) {
  MemoryAccess access;
  access.address = address;
  access.pc = pc;
  return access;
}

TEST(PrefetcherTest, NextLineTurnsStreamIntoHits) {
  MachineDesc machine = MachineDesc::skylake();
  PrefetcherConfig off = PrefetcherConfig::from_msr_mask(0xF);
  PrefetcherConfig next_only = off;
  next_only.dcu_next_line = true;

  auto run = [&](const PrefetcherConfig& pf) {
    CoreCacheModel core(machine, pf);
    for (std::uint64_t i = 0; i < 4000; ++i)
      core.access(make_access(i * 64));  // unit-line stride
    return core.stats();
  };
  CacheStats off_stats = run(off);
  CacheStats on_stats = run(next_only);
  EXPECT_GT(on_stats.l1_hit_rate(), off_stats.l1_hit_rate() + 0.3);
  EXPECT_GT(on_stats.prefetch_hits, 0u);
}

TEST(PrefetcherTest, IpStrideCoversLargeStrides) {
  MachineDesc machine = MachineDesc::skylake();
  PrefetcherConfig off = PrefetcherConfig::from_msr_mask(0xF);
  PrefetcherConfig ip_only = off;
  ip_only.dcu_ip = true;

  auto run = [&](const PrefetcherConfig& pf) {
    CoreCacheModel core(machine, pf);
    for (std::uint64_t i = 0; i < 4000; ++i)
      core.access(make_access(i * 1024, /*pc=*/5));  // 1KB stride
    return core.stats();
  };
  EXPECT_GT(run(ip_only).l1_hit_rate(), run(off).l1_hit_rate() + 0.3);
}

TEST(PrefetcherTest, StreamerHelpsL2OnLineStreams) {
  MachineDesc machine = MachineDesc::skylake();
  PrefetcherConfig off = PrefetcherConfig::from_msr_mask(0xF);
  PrefetcherConfig streamer_only = off;
  streamer_only.l2_streamer = true;

  auto run = [&](const PrefetcherConfig& pf) {
    CoreCacheModel core(machine, pf);
    // Footprint larger than L1 so L2 matters; forward stream.
    for (std::uint64_t i = 0; i < 6000; ++i)
      core.access(make_access(i * 64 * 2));
    return core.stats();
  };
  EXPECT_GT(run(streamer_only).l2_local_hit_rate(),
            run(off).l2_local_hit_rate() + 0.2);
}

TEST(PrefetcherTest, RandomAccessMakesPrefetchingWasteful) {
  MachineDesc machine = MachineDesc::skylake();
  PrefetcherConfig all_on;  // default: everything enabled
  CoreCacheModel core(machine, all_on);
  irgnn::Rng rng(3);
  for (int i = 0; i < 6000; ++i)
    core.access(make_access(rng.next_below(1ull << 26)));
  EXPECT_LT(core.stats().prefetch_accuracy(), 0.2);
  EXPECT_GT(core.stats().prefetches_issued, 1000u);
}

// --- Shared-L1 lockstep ------------------------------------------------------

void expect_same_stats(const CacheStats& a, const CacheStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.accesses, b.accesses) << where;
  EXPECT_EQ(a.l1_hits, b.l1_hits) << where;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << where;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << where;
  EXPECT_EQ(a.prefetches_issued, b.prefetches_issued) << where;
  EXPECT_EQ(a.prefetch_hits, b.prefetch_hits) << where;
}

TEST(LockstepTest, SharedL1VariantsMatchSingleMaskRuns) {
  struct TraceCase {
    const char* region;
    int threads;
    int call;
  };
  // Streaming, irregular, and a drifting region at a later call.
  const TraceCase cases[] = {{"sp rhs", 8, 0}, {"bfs 135", 4, 0},
                             {"kmeans", 12, 3}};
  for (const auto& machine :
       {MachineDesc::sandy_bridge(), MachineDesc::skylake()}) {
    for (const TraceCase& c : cases) {
      const workloads::RegionSpec* spec = workloads::find_region(c.region);
      ASSERT_NE(spec, nullptr) << c.region;
      if (c.call > 0) {
        ASSERT_GT(spec->traits.call_variability, 0.0) << c.region;
      }
      const Trace trace =
          generate_trace(spec->traits, 0, c.threads, 1.0, c.call);
      std::set<std::uint64_t> distinct_traffic;
      for (int dcu = 0; dcu < 4; ++dcu) {
        std::vector<PrefetcherConfig> variants;
        for (int l2 = 0; l2 < 4; ++l2)
          variants.push_back(PrefetcherConfig::from_msr_mask(4 * dcu + l2));
        CoreCacheModel shared(machine, variants);
        for (const MemoryAccess& a : trace.accesses) shared.access(a);
        for (int l2 = 0; l2 < 4; ++l2) {
          CoreCacheModel single(machine, variants[l2]);
          for (const MemoryAccess& a : trace.accesses) single.access(a);
          expect_same_stats(shared.stats(l2), single.stats(),
                            machine.name + " " + c.region + " mask " +
                                std::to_string(4 * dcu + l2));
          distinct_traffic.insert(single.stats().prefetches_issued);
        }
      }
      // The masks really differ on this trace; the equality above is not
      // vacuous.
      EXPECT_GT(distinct_traffic.size(), 4u) << machine.name << " "
                                             << c.region;
    }
  }
}

TEST(LockstepTest, ResetModelReportsWhatAFreshModelReports) {
  // One model reused the way Simulator reuses it: reset between traces and
  // between DCU settings, after its caches, stride table and streamer
  // monitors were filled by the previous pass. Every variant must report
  // exactly what a newly built model reports. Besides three region traces,
  // one strided walk is cut in two halves inside one 4KB page: a stale
  // stride entry, stream monitor or prefetched L1 line left by the first
  // half would change the second half's statistics. Each trace starts with
  // the last DCU setting, so its first pass follows the previous trace's
  // last one under the same prefetchers.
  std::vector<std::vector<MemoryAccess>> traces;
  for (const char* region : {"sp rhs", "bfs 135", "kmeans"}) {
    const workloads::RegionSpec* spec = workloads::find_region(region);
    ASSERT_NE(spec, nullptr) << region;
    traces.push_back(generate_trace(spec->traits, 0, 4, 1.0, 0).accesses);
  }
  for (std::uint64_t half : {0, 1}) {
    traces.emplace_back();
    for (std::uint64_t i = 32 * half; i < 32 * (half + 1); ++i)
      traces.back().push_back(make_access(4096 + 64 * i, /*pc=*/3));
  }
  for (const auto& machine :
       {MachineDesc::sandy_bridge(), MachineDesc::skylake()}) {
    std::vector<PrefetcherConfig> initial;
    for (int l2 = 0; l2 < 4; ++l2)
      initial.push_back(PrefetcherConfig::from_msr_mask(l2));
    CoreCacheModel reused(machine, initial);
    for (std::size_t t = 0; t < traces.size(); ++t) {
      auto check = [&](const std::vector<PrefetcherConfig>& variants) {
        reused.reset(variants);
        CoreCacheModel fresh(machine, variants);
        for (const MemoryAccess& a : traces[t]) {
          reused.access(a);
          fresh.access(a);
        }
        for (std::size_t v = 0; v < variants.size(); ++v)
          expect_same_stats(reused.stats(v), fresh.stats(v),
                            machine.name + " trace " + std::to_string(t) +
                                " mask " +
                                std::to_string(variants[v].msr_mask()));
      };
      for (int dcu : {3, 0, 1, 2, 3}) {
        std::vector<PrefetcherConfig> variants;
        for (int l2 = 0; l2 < 4; ++l2)
          variants.push_back(PrefetcherConfig::from_msr_mask(4 * dcu + l2));
        check(variants);
      }
    }
  }
}

TEST(LockstepTest, ResetRefusesVariantsTheConstructorWouldRefuseOrRecount) {
  MachineDesc machine = MachineDesc::skylake();
  CoreCacheModel core(machine, {PrefetcherConfig::from_msr_mask(0),
                                PrefetcherConfig::from_msr_mask(1)});
  EXPECT_THROW(core.reset({}), std::invalid_argument);
  EXPECT_THROW(core.reset({PrefetcherConfig::from_msr_mask(0),
                           PrefetcherConfig::from_msr_mask(4)}),
               std::invalid_argument);
  EXPECT_THROW(core.reset({PrefetcherConfig::from_msr_mask(8)}),
               std::invalid_argument);
  EXPECT_NO_THROW(core.reset({PrefetcherConfig::from_msr_mask(8),
                              PrefetcherConfig::from_msr_mask(11)}));
}

TEST(CacheTest, ResetEmptiesEverySet) {
  // 2 sets x 2 ways: fill both sets, reset, and the cache is empty again
  // and fills and evicts exactly like a new one.
  SetAssociativeCache cache(256, 2, 64);
  for (std::uint64_t line : {0, 1, 2, 3}) cache.insert_if_absent(line, true);
  cache.reset();
  for (std::uint64_t line : {0, 1, 2, 3}) {
    EXPECT_FALSE(cache.contains(line)) << line;
    EXPECT_FALSE(cache.access(line)) << line;
  }
  cache.insert_if_absent(4, false);
  cache.insert_if_absent(6, false);
  EXPECT_TRUE(cache.access(4));  // touch 4: now 6 is LRU
  cache.insert_if_absent(8, false);
  EXPECT_TRUE(cache.contains(4));
  EXPECT_FALSE(cache.contains(6));
  EXPECT_TRUE(cache.contains(8));
  bool was_prefetched = true;
  EXPECT_TRUE(cache.access(8, &was_prefetched));
  EXPECT_FALSE(was_prefetched);
}

TEST(LockstepTest, VariantsMustShareTheDcuBits) {
  MachineDesc machine = MachineDesc::skylake();
  EXPECT_THROW(CoreCacheModel(machine, std::vector<PrefetcherConfig>{}),
               std::invalid_argument);
  EXPECT_THROW(CoreCacheModel(machine, {PrefetcherConfig::from_msr_mask(0),
                                        PrefetcherConfig::from_msr_mask(4)}),
               std::invalid_argument);
  EXPECT_NO_THROW(CoreCacheModel(machine,
                                 {PrefetcherConfig::from_msr_mask(8),
                                  PrefetcherConfig::from_msr_mask(11)}));
}

TEST(ConfigTest, SpaceSizesMatchPaper) {
  EXPECT_EQ(enumerate_configurations(MachineDesc::sandy_bridge()).size(),
            320u);
  EXPECT_EQ(enumerate_configurations(MachineDesc::skylake()).size(), 288u);
}

TEST(ConfigTest, DefaultIsInsideTheSpace) {
  for (const auto& machine :
       {MachineDesc::sandy_bridge(), MachineDesc::skylake()}) {
    auto configs = enumerate_configurations(machine);
    Configuration def = default_configuration(machine);
    EXPECT_NE(std::find(configs.begin(), configs.end(), def), configs.end())
        << machine.name;
  }
}

TEST(ConfigTest, MsrMaskRoundTrip) {
  for (int mask = 0; mask < 16; ++mask)
    EXPECT_EQ(PrefetcherConfig::from_msr_mask(mask).msr_mask(), mask);
}

TEST(ConfigTest, TranslationSnapsToLegalPoints) {
  MachineDesc snb = MachineDesc::sandy_bridge();
  MachineDesc skl = MachineDesc::skylake();
  Configuration c = default_configuration(skl);  // 48T/2N
  Configuration t = translate_configuration(c, skl, snb);
  EXPECT_EQ(t.threads, 32);  // saturation maps 48 -> 32
  EXPECT_EQ(t.nodes, 4);
  // And back.
  Configuration back = translate_configuration(t, snb, skl);
  EXPECT_EQ(back.threads, 48);
  // Prefetch settings carry over unchanged.
  EXPECT_EQ(back.prefetch, c.prefetch);
}

TEST(ConfigTest, TranslatedConfigsAlwaysExistOnTarget) {
  MachineDesc snb = MachineDesc::sandy_bridge();
  MachineDesc skl = MachineDesc::skylake();
  auto skl_configs = enumerate_configurations(skl);
  for (const auto& c : enumerate_configurations(snb)) {
    Configuration t = translate_configuration(c, snb, skl);
    EXPECT_NE(std::find(skl_configs.begin(), skl_configs.end(), t),
              skl_configs.end())
        << c.to_string() << " -> " << t.to_string();
  }
}

WorkloadTraits streaming_traits() {
  WorkloadTraits traits;
  traits.region = "test stream";
  Phase phase;
  MemoryStream s;
  s.stride_bytes = 8;
  s.footprint_bytes = 64ull << 20;
  s.shared = true;
  phase.streams = {s};
  phase.accesses_per_call = 1'000'000;
  traits.phases = {phase};
  return traits;
}

TEST(SimulatorTest, DeterministicResults) {
  MachineDesc machine = MachineDesc::skylake();
  Simulator a(machine);
  Simulator b(machine);
  Configuration config = default_configuration(machine);
  EXPECT_DOUBLE_EQ(a.simulate(streaming_traits(), config).cycles,
                   b.simulate(streaming_traits(), config).cycles);
}

TEST(SimulatorTest, MemoKeysOnTheExactSizeScale) {
  // One Simulator asked at two close input sizes must answer each exactly
  // as a fresh Simulator would: the second size may not reuse the first
  // size's memoized cache statistics.
  MachineDesc machine = MachineDesc::skylake();
  WorkloadTraits traits = streaming_traits();
  traits.region = "test gather";
  traits.phases[0].streams[0].irregularity = 0.6;  // size-sensitive jumps
  Configuration config = default_configuration(machine);
  Simulator shared(machine);
  for (double scale : {1.0, 1.004}) {
    SimResult reused = shared.simulate(traits, config, scale);
    SimResult fresh = Simulator(machine).simulate(traits, config, scale);
    EXPECT_EQ(reused.cycles, fresh.cycles) << "scale " << scale;
    EXPECT_EQ(reused.counters.l1_miss_ratio, fresh.counters.l1_miss_ratio)
        << "scale " << scale;
    EXPECT_EQ(reused.counters.l3_miss_ratio, fresh.counters.l3_miss_ratio)
        << "scale " << scale;
  }
}

TEST(SimulatorTest, InterleaveBeatsLocalityForSharedBandwidthBound) {
  MachineDesc machine = MachineDesc::sandy_bridge();
  Simulator simulator(machine);
  Configuration locality = default_configuration(machine);
  Configuration interleave = locality;
  interleave.page_mapping = PageMapping::Interleave;
  double t_loc = simulator.simulate(streaming_traits(), locality).cycles;
  double t_int = simulator.simulate(streaming_traits(), interleave).cycles;
  EXPECT_LT(t_int, t_loc * 0.7);  // spreading controllers wins big
}

TEST(SimulatorTest, SyncBoundRegionPrefersFewerThreads) {
  const workloads::RegionSpec* clomp = workloads::find_region("clomp 1036");
  ASSERT_NE(clomp, nullptr);
  MachineDesc machine = MachineDesc::sandy_bridge();
  Simulator simulator(machine);
  Configuration wide = default_configuration(machine);
  Configuration narrow;
  narrow.threads = 4;
  narrow.nodes = 1;
  double t_wide = simulator.simulate(clomp->traits, wide).cycles;
  double t_narrow = simulator.simulate(clomp->traits, narrow).cycles;
  EXPECT_LT(t_narrow, t_wide);
}

TEST(SimulatorTest, CountersAreSane) {
  MachineDesc machine = MachineDesc::skylake();
  Simulator simulator(machine);
  SimResult result =
      simulator.simulate(streaming_traits(), default_configuration(machine));
  const PerfCounters& c = result.counters;
  EXPECT_GT(c.cycles, 0);
  EXPECT_GT(c.instructions, 0);
  EXPECT_GE(c.l3_miss_ratio, 0);
  EXPECT_LE(c.l3_miss_ratio, 1.0 + 1e-9);
  EXPECT_GE(c.remote_access_ratio, 0);
  EXPECT_LE(c.remote_access_ratio, 1.0 + 1e-9);
  EXPECT_GT(c.package_power, 0);
}

TEST(SimulatorTest, PerCallStabilityMatchesVariability) {
  MachineDesc machine = MachineDesc::skylake();
  Simulator simulator(machine);
  Configuration config = default_configuration(machine);
  const auto* stable = workloads::find_region("sp rhs");
  const auto* dynamic = workloads::find_region("kmeans");
  auto spread = [&](const workloads::RegionSpec* spec) {
    auto series = simulator.per_call_cycles(spec->traits, config);
    double lo = *std::min_element(series.begin(), series.end());
    double hi = *std::max_element(series.begin(), series.end());
    return hi / lo;
  };
  EXPECT_NEAR(spread(stable), 1.0, 1e-9);
  EXPECT_GT(spread(dynamic), 1.15);
}

// --- Property sweeps over the whole configuration space --------------------

class ConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConfigSweep, EveryConfigurationProducesPositiveFiniteTime) {
  MachineDesc machine = MachineDesc::skylake();
  auto configs = enumerate_configurations(machine);
  Simulator simulator(machine);
  const auto& spec = workloads::benchmark_suite()[GetParam()];
  for (const auto& config : configs) {
    double cycles = simulator.simulate(spec.traits, config).cycles;
    EXPECT_GT(cycles, 0) << spec.name << " @ " << config.to_string();
    EXPECT_TRUE(std::isfinite(cycles));
  }
}

INSTANTIATE_TEST_SUITE_P(SampledRegions, ConfigSweep,
                         ::testing::Values(0, 10, 21, 33, 45, 55));

TEST(ExplorationTest, TablesAndLabelReduction) {
  MachineDesc machine = MachineDesc::skylake();
  std::vector<WorkloadTraits> traits;
  for (int r : {0, 5, 12, 20, 30, 44, 50})
    traits.push_back(workloads::benchmark_suite()[r].traits);
  ExplorationTable table = explore(machine, traits);
  EXPECT_EQ(table.time.size(), traits.size());
  EXPECT_GE(table.default_index, 0);
  EXPECT_EQ(table.probe_counters[0].size(), table.probe_indices.size());
  EXPECT_GE(table.full_exploration_speedup(), 1.0);

  auto labels = reduce_labels(table, 6);
  EXPECT_LE(labels.size(), 6u);
  // The default configuration is always a member.
  EXPECT_NE(std::find(labels.begin(), labels.end(), table.default_index),
            labels.end());
  // Monotonicity: more labels never reduce the attainable gains.
  auto l2 = reduce_labels(table, 2);
  auto l13 = reduce_labels(table, 13);
  double s2 = label_assignment_speedup(table, l2, best_labels(table, l2));
  double s6 =
      label_assignment_speedup(table, labels, best_labels(table, labels));
  double s13 = label_assignment_speedup(table, l13, best_labels(table, l13));
  EXPECT_LE(s2, s6 + 1e-9);
  EXPECT_LE(s6, s13 + 1e-9);
  // Label subsets never lose to the baseline.
  EXPECT_GE(s2, 1.0);
}

TEST(TraceTest, DeterministicAndBounded) {
  const auto& spec = workloads::benchmark_suite()[7];
  Trace a = generate_trace(spec.traits, 0, 8, 1.0, 0);
  Trace b = generate_trace(spec.traits, 0, 8, 1.0, 0);
  ASSERT_EQ(a.accesses.size(), b.accesses.size());
  for (std::size_t i = 0; i < a.accesses.size(); ++i)
    EXPECT_EQ(a.accesses[i].address, b.accesses[i].address);
  EXPECT_LE(a.accesses.size(), TraceOptions{}.max_length);
}

TEST(TraceTest, ThreadsPartitionFootprint) {
  // With more threads, a private stream's per-thread footprint shrinks, so
  // the same-length trace wraps around fewer distinct lines.
  WorkloadTraits traits;
  traits.region = "partition test";
  Phase phase;
  MemoryStream s;
  s.stride_bytes = 64;
  s.footprint_bytes = 256 * 1024;  // 4096 lines at T=1, 128 lines at T=32
  phase.streams = {s};
  phase.accesses_per_call = 600'000;
  traits.phases = {phase};
  auto distinct_lines = [&](int threads) {
    Trace trace = generate_trace(traits, 0, threads, 1.0, 0);
    std::set<std::uint64_t> lines;
    for (const auto& a : trace.accesses) lines.insert(a.address / 64);
    return lines.size();
  };
  EXPECT_GT(distinct_lines(1), 4 * distinct_lines(32));
}

}  // namespace
}  // namespace irgnn::sim
