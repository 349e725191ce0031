#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace irgnn::sim {

namespace {

/// Threads placed on each used node under a thread mapping.
std::vector<int> threads_per_node(const MachineDesc& m,
                                  const Configuration& c) {
  std::vector<int> tpn(c.nodes, 0);
  if (c.thread_mapping == ThreadMapping::Contiguous) {
    int remaining = c.threads;
    for (int n = 0; n < c.nodes && remaining > 0; ++n) {
      tpn[n] = std::min(remaining, m.cores_per_node);
      remaining -= tpn[n];
    }
  } else {  // round robin / scatter
    for (int t = 0; t < c.threads; ++t) ++tpn[t % c.nodes];
  }
  return tpn;
}

}  // namespace

Simulator::PhaseCacheStats Simulator::core_stats(
    const WorkloadTraits& traits, std::size_t phase_index, int threads,
    const PrefetcherConfig& prefetch, double size_scale, int call_index) {
  int drift_call = traits.call_variability > 0.0 ? call_index : 0;
  auto key = std::make_tuple(traits.region, phase_index, threads, size_scale,
                             drift_call);
  auto it = stats_cache_.find(key);
  if (it != stats_cache_.end()) return it->second[prefetch.msr_mask()];

  // Masks 4d..4d+3 share the DCU bits of d, hence one L1: one pass per DCU
  // setting drives the four L2 variants (low mask bits) in lockstep.
  Trace trace =
      generate_trace(traits, phase_index, threads, size_scale, drift_call);
  std::array<PhaseCacheStats, 16> all;
  for (int dcu = 0; dcu < 4; ++dcu) {
    std::vector<PrefetcherConfig> variants;
    for (int l2 = 0; l2 < 4; ++l2)
      variants.push_back(PrefetcherConfig::from_msr_mask(4 * dcu + l2));
    CoreCacheModel core(machine_, variants);
    for (const MemoryAccess& access : trace.accesses) core.access(access);
    for (int l2 = 0; l2 < 4; ++l2) {
      const CacheStats cs = core.stats(l2);
      PhaseCacheStats& out = all[4 * dcu + l2];
      out.l1_hit_rate = cs.l1_hit_rate();
      out.l2_hit_rate = cs.l2_local_hit_rate();
      out.beyond_l2_per_access = cs.beyond_l2_per_access();
      out.prefetch_traffic_per_access = cs.prefetch_traffic_per_access();
      out.prefetch_accuracy = cs.prefetch_accuracy();
    }
  }
  return stats_cache_.emplace(key, all).first->second[prefetch.msr_mask()];
}

SimResult Simulator::simulate_call(const WorkloadTraits& traits,
                                   const Configuration& config,
                                   double size_scale, int call_index) {
  const MachineDesc& m = machine_;
  const int T = config.threads;
  const int N = config.nodes;
  std::vector<int> tpn = threads_per_node(m, config);
  const int busiest_tpn = *std::max_element(tpn.begin(), tpn.end());
  const int nodes_with_threads =
      static_cast<int>(std::count_if(tpn.begin(), tpn.end(),
                                     [](int t) { return t > 0; }));

  double total_cycles = 0;
  double total_instructions = 0;
  double acc_l1_miss = 0, acc_l2_miss = 0, acc_l3_miss = 0;
  double acc_remote = 0, acc_weight = 0;
  double max_bw_util = 0;
  double power_accum = 0;

  for (std::size_t p = 0; p < traits.phases.size(); ++p) {
    const Phase phase = effective_phase(
        traits, p, traits.call_variability > 0.0 ? call_index : 0);
    PhaseCacheStats cs =
        core_stats(traits, p, T, config.prefetch, size_scale, call_index);

    const double n_acc =
        static_cast<double>(phase.accesses_per_call) * size_scale / T;

    // --- Shared L3, per node -------------------------------------------------
    double shared_frac = 0;
    double avg_irregularity = 0;
    double write_frac = 0;
    double ws_private = 0, ws_shared = 0;
    for (const MemoryStream& s : phase.streams) {
      double fp = static_cast<double>(s.footprint_bytes) * size_scale;
      if (s.shared) {
        shared_frac += 1.0;
        ws_shared += fp;
      } else {
        ws_private += fp;
      }
      avg_irregularity += s.irregularity;
      write_frac += s.write_fraction;
    }
    const double num_streams = static_cast<double>(phase.streams.size());
    shared_frac /= num_streams;
    avg_irregularity /= num_streams;
    write_frac /= num_streams;

    // Working set landing on the busiest node's L3 beyond the private L2s.
    double ws_node = ws_private * (static_cast<double>(busiest_tpn) / T) +
                     ws_shared;
    double ws_beyond_l2 =
        std::max(0.0, ws_node - busiest_tpn * static_cast<double>(
                                                  m.l2_size_bytes));
    double l3_hit;
    double l3_size = static_cast<double>(m.l3_size_bytes_per_node);
    if (ws_beyond_l2 <= l3_size * 0.9) {
      l3_hit = 0.92;
    } else {
      l3_hit = 0.92 * std::pow(l3_size / ws_beyond_l2, 0.7);
    }
    // Useless prefetch traffic pollutes the shared cache.
    double pollution =
        cs.prefetch_traffic_per_access * (1.0 - cs.prefetch_accuracy);
    l3_hit = std::max(0.0, l3_hit * (1.0 - 0.35 * std::min(1.0, pollution)));

    const double mem_per_access =
        cs.beyond_l2_per_access * (1.0 - l3_hit);

    // --- Local / remote split by page mapping -------------------------------
    double t0_frac = static_cast<double>(tpn[0]) / T;  // threads on node 0
    double local_frac = 1.0;  // one node: every access is local
    if (N > 1) {
      switch (config.page_mapping) {
        case PageMapping::FirstTouch:
          // The master thread's node hosts every page.
          local_frac = t0_frac;
          break;
        case PageMapping::Locality:
          // Private pages land on the accessor's node; shared pages have
          // one home node (the first toucher's, node 0).
          local_frac = (1.0 - shared_frac) + shared_frac * t0_frac;
          break;
        case PageMapping::Interleave:
          local_frac = 1.0 / nodes_with_threads;
          break;
        case PageMapping::Balance:
          // Pages distributed proportionally to the per-node thread load.
          local_frac = 0;
          for (int n = 0; n < N; ++n) {
            double share = static_cast<double>(tpn[n]) / T;
            local_frac += share * share;
          }
          break;
      }
    }
    const double remote_frac = 1.0 - local_frac;
    const double avg_mem_lat =
        local_frac * m.lat_local_mem + remote_frac * m.lat_remote_mem;

    // --- Per-thread latency & compute ---------------------------------------
    const double avg_access_cycles =
        cs.l1_hit_rate * m.lat_l1 +
        (1.0 - cs.l1_hit_rate) * cs.l2_hit_rate * m.lat_l2 +
        cs.beyond_l2_per_access * l3_hit * m.lat_l3 +
        mem_per_access * avg_mem_lat;
    const double mlp = 1.2 + 3.0 * (1.0 - avg_irregularity);
    const double lat_cycles = n_acc * avg_access_cycles / mlp;

    const double instr_per_access = 2.0 + phase.flops_per_access;
    const double ipc_eff =
        m.base_ipc * (1.0 - 0.45 * phase.branch_irregularity);
    const double compute_cycles = n_acc * instr_per_access / ipc_eff;

    double per_thread_cycles = std::max(compute_cycles, lat_cycles);

    // False sharing: writers invalidating neighbours' lines.
    if (T > 1 && phase.false_sharing > 0.0) {
      per_thread_cycles += n_acc * phase.false_sharing * write_frac *
                           0.5 * m.lat_remote_mem *
                           std::min(1.0, (T - 1) / 8.0);
    }

    // --- Bandwidth ceilings ---------------------------------------------------
    const double bytes_per_thread =
        n_acc *
        (mem_per_access +
         cs.prefetch_traffic_per_access * (1.0 - l3_hit)) *
        m.line_bytes;
    // Controller load distribution mirrors the page mapping.
    std::vector<double> controller_bytes(N, 0.0);
    const double total_bytes = bytes_per_thread * T;
    switch (config.page_mapping) {
      case PageMapping::FirstTouch:
        controller_bytes[0] = total_bytes;
        break;
      case PageMapping::Locality:
        for (int n = 0; n < N; ++n)
          controller_bytes[n] =
              bytes_per_thread * tpn[n] * (1.0 - shared_frac);
        controller_bytes[0] += total_bytes * shared_frac;
        break;
      case PageMapping::Interleave:
        for (int n = 0; n < N; ++n)
          controller_bytes[n] = total_bytes / nodes_with_threads;
        break;
      case PageMapping::Balance:
        for (int n = 0; n < N; ++n)
          controller_bytes[n] = total_bytes * tpn[n] / T;
        break;
    }
    double busiest_controller =
        *std::max_element(controller_bytes.begin(), controller_bytes.end());
    double t_bw = busiest_controller / m.node_bandwidth;
    double remote_bytes = total_bytes * remote_frac;
    double t_interconnect =
        remote_bytes / (m.interconnect_bandwidth *
                        std::max(1, nodes_with_threads));

    double parallel_cycles =
        std::max({per_thread_cycles, t_bw, t_interconnect});

    // --- Synchronization & serial fraction ----------------------------------
    // Synchronization does NOT amortize with more threads: the number of
    // barrier episodes is fixed by the loop structure and each costs
    // O(T log T) under contention. This is what makes CLOMP-style regions
    // prefer low parallelism degrees (a headline effect of the paper's
    // configuration space).
    const double total_accesses = n_acc * T;
    const double barrier_cycles = 500.0 * T + 2000.0 * std::log2(1.0 + T);
    const double sync_cycles =
        phase.sync_cost * total_accesses * 0.02 * T * std::log2(1.0 + T) +
        barrier_cycles;
    const double serial_cycles =
        traits.serial_fraction * per_thread_cycles * T;
    const double phase_cycles = (1.0 - traits.serial_fraction) *
                                    (parallel_cycles + sync_cycles) +
                                serial_cycles;

    total_cycles += phase_cycles;
    const double phase_instr = n_acc * T * instr_per_access;
    total_instructions += phase_instr;
    acc_l1_miss += (1.0 - cs.l1_hit_rate) * n_acc * T;
    acc_l2_miss += cs.beyond_l2_per_access * n_acc * T;  // L3 lookups
    acc_l3_miss += mem_per_access * n_acc * T;           // L3 misses
    acc_remote += remote_frac * n_acc * T;
    acc_weight += n_acc * T;
    max_bw_util = std::max(
        max_bw_util, parallel_cycles > 0
                         ? busiest_controller /
                               (m.node_bandwidth * parallel_cycles)
                         : 0.0);
    // Power proxy: per-package static + active-core dynamic + memory I/O.
    double util = parallel_cycles > 0
                      ? std::min(1.0, compute_cycles / parallel_cycles)
                      : 1.0;
    power_accum +=
        phase_cycles *
        (22.0 * nodes_with_threads + 3.2 * T * (0.35 + 0.65 * util) +
         28.0 * std::min(1.5, total_bytes /
                                  (m.node_bandwidth * parallel_cycles + 1)));
  }

  SimResult result;
  result.cycles = total_cycles;
  PerfCounters& pc = result.counters;
  pc.instructions = total_instructions;
  pc.cycles = total_cycles;
  pc.ipc = total_cycles > 0 ? total_instructions / (total_cycles * T) : 0;
  if (acc_weight > 0) {
    pc.l1_miss_ratio = acc_l1_miss / acc_weight;
    pc.l2_miss_ratio = acc_l2_miss / acc_weight;
    pc.l3_miss_ratio = acc_l2_miss > 0 ? acc_l3_miss / acc_l2_miss : 0.0;
    pc.remote_access_ratio = acc_remote / acc_weight;
  }
  pc.bandwidth_utilization = max_bw_util;
  pc.package_power = total_cycles > 0 ? power_accum / total_cycles : 0;
  return result;
}

SimResult Simulator::simulate(const WorkloadTraits& traits,
                              const Configuration& config,
                              double size_scale) {
  if (traits.call_variability <= 0.0)
    return simulate_call(traits, config, size_scale, 0);
  SimResult avg;
  for (int call = 0; call < traits.calls; ++call) {
    SimResult r = simulate_call(traits, config, size_scale, call);
    avg.cycles += r.cycles;
    PerfCounters& a = avg.counters;
    const PerfCounters& c = r.counters;
    a.instructions += c.instructions;
    a.cycles += c.cycles;
    a.ipc += c.ipc;
    a.l1_miss_ratio += c.l1_miss_ratio;
    a.l2_miss_ratio += c.l2_miss_ratio;
    a.l3_miss_ratio += c.l3_miss_ratio;
    a.remote_access_ratio += c.remote_access_ratio;
    a.bandwidth_utilization += c.bandwidth_utilization;
    a.package_power += c.package_power;
  }
  double inv = 1.0 / traits.calls;
  avg.cycles *= inv;
  PerfCounters& a = avg.counters;
  a.instructions *= inv;
  a.cycles *= inv;
  a.ipc *= inv;
  a.l1_miss_ratio *= inv;
  a.l2_miss_ratio *= inv;
  a.l3_miss_ratio *= inv;
  a.remote_access_ratio *= inv;
  a.bandwidth_utilization *= inv;
  a.package_power *= inv;
  return avg;
}

std::vector<double> Simulator::per_call_cycles(const WorkloadTraits& traits,
                                               const Configuration& config,
                                               double size_scale) {
  std::vector<double> out;
  out.reserve(traits.calls);
  for (int call = 0; call < traits.calls; ++call)
    out.push_back(simulate_call(traits, config, size_scale, call).cycles);
  return out;
}

}  // namespace irgnn::sim
