#include "gpusim/timing.hpp"

#include <algorithm>
#include <utility>

namespace gpusim {

TimingBreakdown compute_timing(const MachineModel& m, const OccupancyInfo& occ,
                               const TraceCounters& ctr, double dram_cost_units,
                               double codegen_slowdown) {
  TimingBreakdown t;
  if (occ.achieved <= 0.0) return t;  // no group resident: an empty launch takes no time
  const double clock = m.clock_hz();
  const double sms = static_cast<double>(m.num_sms);
  const double occ_a = occ.achieved;

  // -- DRAM: row-hit-equivalent sectors over derated peak bandwidth ----------
  {
    const double bytes_equiv = dram_cost_units * static_cast<double>(m.sector_bytes);
    const double bw = m.dram_peak_gbs * 1e9 * kCalibration.dram_base_efficiency *
                      latency_hiding(occ_a, kCalibration.occ_half_sat_dram);
    t.dram_s = bw > 0.0 ? bytes_equiv / bw : 0.0;
  }

  // -- L1/LSU: sector servicing throughput per SM -----------------------------
  {
    const double sectors = static_cast<double>(ctr.l1_tag_requests_global);
    // Every memory instruction occupies the LSU at least one cycle even if it
    // coalesces to fewer than 4 sectors.
    const double mem_ops = static_cast<double>(ctr.global_load_ops + ctr.global_store_ops +
                                               ctr.atomic_ops + ctr.shared_ops);
    const double cycles = std::max(sectors / m.l1_sectors_per_cycle, mem_ops);
    t.l1_s = cycles / (sms * clock * latency_hiding(occ_a, kCalibration.occ_half_sat_l1));
  }

  // -- Memory-latency pressure (MSHR/LSU slot occupancy per sector) ----------
  {
    const double sectors = static_cast<double>(ctr.l1_tag_requests_global);
    t.latency_s = sectors * kCalibration.latency_cycles_per_sector /
                  (sms * clock * latency_hiding(occ_a, kCalibration.occ_half_sat_latency));
  }

  // -- Shared memory: one wavefront per cycle per SM --------------------------
  {
    const double cycles =
        static_cast<double>(ctr.shared_wavefronts) / m.smem_wavefronts_per_cycle;
    t.shared_s = cycles / (sms * clock * latency_hiding(occ_a, kCalibration.occ_half_sat_l1));
  }

  // -- Issue: warp instruction slots over the schedulers; FP64 warp FMAs are
  //    additionally bounded by the FP64 pipe (one full warp per cycle per SM).
  {
    const double slot_cycles =
        static_cast<double>(ctr.warp_issue_slots) / static_cast<double>(m.schedulers_per_sm);
    const double fp64_cycles = static_cast<double>(ctr.fp64_warp_slots) /
                               (m.fp64_lanes_per_cycle / static_cast<double>(m.warp_size));
    const double cycles = std::max(slot_cycles, fp64_cycles);
    t.issue_s = cycles / (sms * clock * latency_hiding(occ_a, kCalibration.occ_half_sat_issue));
  }

  // -- Atomic serialisation (additive) ----------------------------------------
  {
    // Every lane update is a serialised visit to an L2 atomic unit; distinct
    // addresses spread over `atomic_parallel_units` concurrent units.
    t.atomic_s = static_cast<double>(ctr.atomic_lane_updates) *
                 kCalibration.atomic_serial_cycles /
                 (sms * clock * kCalibration.atomic_parallel_units);
  }

  // -- Barrier drain (additive): overlapped across resident warps -------------
  {
    const double warps_hiding = std::max(1.0, static_cast<double>(occ.warps_per_sm));
    t.barrier_s = static_cast<double>(ctr.barrier_warp_events) *
                  kCalibration.barrier_drain_cycles / (sms * clock * warps_hiding);
  }

  // Combine: the memory system is bound by the larger of bandwidth and
  // latency pressure; issue and shared-memory pipes overlap only partially
  // with it (overlap_fraction); atomics and barriers are additive.
  const double mem = std::max(t.dram_s, t.latency_s);
  const std::pair<double, const char*> components[] = {{mem, t.dram_s >= t.latency_s
                                                                 ? "dram"
                                                                 : "latency"},
                                                       {t.l1_s, "l1"},
                                                       {t.shared_s, "shared"},
                                                       {t.issue_s, "issue"}};
  double bound = 0.0;
  for (const auto& [v, n] : components) {
    if (v > bound) {
      bound = v;
      t.bound_by = n;
    }
  }
  double extra = 0.0;
  if (bound == mem) {
    extra = kCalibration.overlap_fraction * (t.issue_s + t.shared_s);
  }
  t.total_s = (bound + extra + t.atomic_s + t.barrier_s) * codegen_slowdown;
  return t;
}

KernelStats make_stats(const MachineModel& m, std::string name, const LaunchConfig& cfg,
                       const OccupancyInfo& occ, const TraceCounters& ctr,
                       double dram_cost_units, double codegen_slowdown) {
  KernelStats st;
  st.name = std::move(name);
  st.launch = cfg;
  st.occupancy = occ;
  st.counters = ctr;
  st.timing = compute_timing(m, occ, ctr, dram_cost_units, codegen_slowdown);

  const double dur_s = st.timing.total_s;
  st.duration_us = dur_s * 1e6;
  st.gflops = dur_s > 0.0 ? static_cast<double>(ctr.flops) / dur_s / 1e9 : 0.0;
  st.peak_pct = 100.0 * st.gflops / (m.empirical_peak_tflops * 1e3);

  const double dur_cycles = dur_s * m.clock_hz();
  if (dur_cycles > 0.0) {
    const double issue_cycles_per_sm = static_cast<double>(ctr.warp_issue_slots) /
                                       static_cast<double>(m.schedulers_per_sm) /
                                       static_cast<double>(m.num_sms);
    st.sm_throughput_pct = 100.0 * issue_cycles_per_sm / dur_cycles;

    const double l1_cycles_per_sm =
        (static_cast<double>(ctr.l1_tag_requests_global) / m.l1_sectors_per_cycle +
         static_cast<double>(ctr.shared_wavefronts) / m.smem_wavefronts_per_cycle +
         static_cast<double>(ctr.global_load_ops + ctr.global_store_ops + ctr.atomic_ops +
                             ctr.shared_ops)) /
        static_cast<double>(m.num_sms);
    st.l1_throughput_pct = 100.0 * l1_cycles_per_sm / dur_cycles;
  }

  const double l1_req = static_cast<double>(ctr.l1_sector_hits + ctr.l1_sector_misses);
  st.l1_miss_pct = l1_req > 0.0 ? 100.0 * static_cast<double>(ctr.l1_sector_misses) / l1_req : 0.0;
  const double l2_req = static_cast<double>(ctr.l2_sector_requests);
  st.l2_miss_pct =
      l2_req > 0.0 ? 100.0 * static_cast<double>(ctr.l2_sector_misses) / l2_req : 0.0;
  st.shared_kb_per_group = static_cast<double>(cfg.shared_bytes_per_group) / 1000.0;  // decimal KB, as Nsight/Table I report
  st.avg_divergent_branches = static_cast<double>(ctr.divergent_branches) /
                              static_cast<double>(m.num_sms * m.schedulers_per_sm);
  return st;
}

std::uint64_t control_issue_slots(std::uint64_t mem_ops) {
  // One running double sum: its addends are all equal, so adding them in a
  // loop gives that sum exactly (mem_ops * control_slots_per_mem_op would not).
  double slots = 0.0;
  for (std::uint64_t i = 0; i < mem_ops; ++i) slots += kCalibration.control_slots_per_mem_op;
  return static_cast<std::uint64_t>(slots);
}

}  // namespace gpusim
