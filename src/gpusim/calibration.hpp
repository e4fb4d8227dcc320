// calibration.hpp — every tunable coefficient of the performance model, in
// one audited place (DESIGN.md "honesty rule").
//
// Two kinds of constants live here:
//  1. *Architectural* constants that are hard to derive from first
//     principles (latency-hiding saturation points, DRAM row-miss penalty,
//     atomic service cost, synchronisation drain).  They are set once so
//     that the simulated A100 lands in the regime the paper measures, shared
//     by every kernel and never tuned per strategy: the one constexpr table
//     kCalibration below.  Occupancy, timing and the DRAM model read it
//     inside gpusim; outside, only minisycl's queue reads its two launch
//     overheads.
//  2. *Codegen* coefficients that stand in for real-compiler effects the
//     paper measures but an architectural simulator cannot produce
//     (register allocation quality, the SYCLomatic derived-index expression,
//     SyclCPLX abstraction overhead).  These are declared per kernel
//     *variant* in KernelTraits — see minisycl/traits.hpp — and documented
//     in DESIGN.md §2 item 2.
#pragma once

namespace gpusim {

struct Calibration {
  // Latency hiding: effective utilisation of a throughput resource at warp
  // occupancy `occ` is  occ * (1 + k) / (occ + k)  — a saturating curve equal
  // to 1 at occ = 1.  Memory-system resources need more concurrency to
  // saturate than issue resources.
  double occ_half_sat_dram = 0.12;   ///< DRAM needs many warps in flight
  double occ_half_sat_l1 = 0.10;     ///< LSU saturates earlier
  double occ_half_sat_issue = 0.05;  ///< issue saturates with few warps
  double occ_half_sat_latency = 0.43;  ///< latency hiding needs the most warps

  /// Memory-latency pressure: every L1 sector request keeps an MSHR/LSU slot
  /// busy for this many SM-cycles *after* latency hiding.  Kernels that issue
  /// many small, uncoalesced requests (1LP over AoS data) become bound by
  /// this term rather than by raw DRAM bandwidth — the mechanism behind the
  /// paper's 2x gap between 1LP and 3LP-1 at similar DRAM traffic.
  double latency_cycles_per_sector = 1.45;

  /// Fraction of issue and shared-memory pipe time that fails to overlap
  /// with the memory system (divergence replays and bank-conflict wavefronts
  /// lengthen the critical path even in memory-bound kernels).
  double overlap_fraction = 0.7;

  /// DRAM row-buffer model: cost of a sector that misses the open row of its
  /// channel, relative to a row-hit sector (captures burst/locality effects
  /// that separate coalesced from scattered miss streams).
  double dram_row_miss_penalty = 2.0;

  /// Peak-bandwidth derating even for perfect streams (refresh, ECC, ...).
  double dram_base_efficiency = 0.965;

  /// L2-atomic service: cycles per serialized same-address update within one
  /// warp instruction, charged on top of the normal memory cost.
  double atomic_serial_cycles = 4.0;

  /// Extra L2 round-trip charged per global atomic sector (read-modify-write
  /// occupies the slice twice).
  double atomic_sector_factor = 2.0;

  /// Concurrency of the L2 atomic units (slices working in parallel, and
  /// overlap of atomic latency with other warps' execution).
  double atomic_parallel_units = 16.0;

  /// Pipeline drain on a work-group barrier: cycles during which the warps of
  /// the group cannot hide latency, charged once per barrier per warp.
  double barrier_drain_cycles = 40.0;

  /// Estimated non-FP instructions (address arithmetic, loop control) issued
  /// per recorded memory operation — drives the issue-slot estimate.
  double control_slots_per_mem_op = 1.4;

  /// Kernel-launch overheads on the simulated timeline (microseconds).
  /// Out-of-order queues pay dependency-graph management on every submit
  /// (paper §IV-D6 attributes the 1.5–6.7% SYCLomatic-optimized advantage to
  /// its in-order queue; see also SYCL-Bench 2020).
  double launch_overhead_in_order_us = 2.5;
  double launch_overhead_out_of_order_us = 24.0;

  /// Warp-scheduler ramp/imbalance factor applied to theoretical occupancy
  /// to produce "achieved" occupancy (in addition to the tail-wave effect,
  /// which is computed exactly from the grid).
  double occupancy_ramp_factor = 0.982;
};

/// The model's coefficients: one table, fixed at compile time.
inline constexpr Calibration kCalibration{};

/// The saturating latency-hiding curve described above.
[[nodiscard]] inline double latency_hiding(double occ, double half_sat) {
  if (occ <= 0.0) return 0.0;
  return occ * (1.0 + half_sat) / (occ + half_sat);
}

}  // namespace gpusim
