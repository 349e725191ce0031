// NUMA-level timing simulator.
//
// For one (workload, configuration, input size, call) the simulator:
//   1. runs the phase's synthetic per-thread trace through the private
//      L1/L2 + prefetcher model (memoized — cache behaviour only depends on
//      threads/prefetchers/size/call, not on NUMA placement; each trace is
//      generated once and simulated for all 16 prefetcher masks together,
//      since the configuration space asks for every mask anyway),
//   2. models the shared per-node L3 by capacity pressure from the threads
//      placed on the node,
//   3. splits memory traffic into local/remote according to the page
//      mapping, stream sharing and node count,
//   4. converts to cycles through a latency term (with memory-level
//      parallelism), per-node and interconnect bandwidth ceilings, OpenMP
//      synchronization cost and an Amdahl serial fraction,
//   5. produces the performance counters the dynamic baseline model
//      consumes (package power and L3 miss ratio, per Sanchez Barrera et
//      al., plus auxiliary ratios).
//
// The simulator is deterministic; a Simulator instance is not thread-safe
// (it memoizes trace results and reuses one cache model across trace
// passes), so parallel callers use one instance per region.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "sim/cache.h"
#include "sim/config.h"
#include "sim/machine.h"
#include "sim/workload_model.h"

namespace irgnn::sim {

struct PerfCounters {
  double instructions = 0;
  double cycles = 0;
  double ipc = 0;
  double l1_miss_ratio = 0;      // misses / accesses
  double l2_miss_ratio = 0;      // misses beyond L2 / accesses below L1
  double l3_miss_ratio = 0;      // memory accesses / L3 lookups
  double remote_access_ratio = 0;
  double bandwidth_utilization = 0;  // busiest node, 0..1+
  double package_power = 0;          // watts proxy, summed over packages

  /// The counter pair driving the paper's best dynamic model (power package
  /// + L3 miss ratio), extended with the auxiliary ratios.
  std::vector<float> feature_vector() const {
    return {static_cast<float>(package_power),
            static_cast<float>(l3_miss_ratio),
            static_cast<float>(remote_access_ratio),
            static_cast<float>(bandwidth_utilization),
            static_cast<float>(ipc)};
  }
  static std::vector<std::string> feature_names() {
    return {"package_power", "l3_miss_ratio", "remote_access_ratio",
            "bandwidth_utilization", "ipc"};
  }
};

struct SimResult {
  double cycles = 0;  // one call
  PerfCounters counters;
};

class Simulator {
 public:
  explicit Simulator(const MachineDesc& machine) : machine_(machine) {}

  const MachineDesc& machine() const { return machine_; }

  /// Simulates one call of the region under `config`.
  SimResult simulate_call(const WorkloadTraits& traits,
                          const Configuration& config, double size_scale,
                          int call_index);

  /// Averages over the region's `calls` invocations (skipping the per-call
  /// drift machinery when the region is static).
  SimResult simulate(const WorkloadTraits& traits, const Configuration& config,
                     double size_scale = 1.0);

  /// Cycles of each call (Fig. 12's time-per-call series).
  std::vector<double> per_call_cycles(const WorkloadTraits& traits,
                                      const Configuration& config,
                                      double size_scale = 1.0);

 private:
  struct PhaseCacheStats {
    double l1_hit_rate = 0;
    double l2_hit_rate = 0;         // of accesses below L1
    double beyond_l2_per_access = 0;
    double prefetch_traffic_per_access = 0;
    double prefetch_accuracy = 0;
  };

  PhaseCacheStats core_stats(const WorkloadTraits& traits,
                             std::size_t phase_index, int threads,
                             const PrefetcherConfig& prefetch,
                             double size_scale, int call_index);

  MachineDesc machine_;
  // Memoized per-thread cache statistics of one trace — keyed by (region,
  // phase, threads, exact size scale, drift call) — for all 16 prefetcher
  // masks, indexed by msr_mask().
  std::map<std::tuple<std::string, std::size_t, int, double, int>,
           std::array<PhaseCacheStats, 16>>
      stats_cache_;
  // The cache model of every trace pass, built on first use and reset
  // between passes: a reset clears one byte per cache set, where a new
  // model would allocate and clear every way of one L1 and four L2s.
  std::optional<CoreCacheModel> core_;
};

}  // namespace irgnn::sim
