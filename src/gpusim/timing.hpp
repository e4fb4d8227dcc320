// timing.hpp — analytical timing model.
//
// The kernel duration is the maximum of the throughput-bound resource times
// (DRAM, L1/LSU, shared memory, instruction issue), each derated by an
// occupancy-dependent latency-hiding curve, plus additive costs for atomic
// serialisation and barrier drains, all scaled by the kernel variant's
// codegen coefficient (DESIGN.md §2 item 2).
#pragma once

#include <cstdint>

#include "gpusim/calibration.hpp"
#include "gpusim/machine.hpp"
#include "gpusim/stats.hpp"

namespace gpusim {

/// Compute the timing decomposition for a replayed kernel.
/// `dram_cost_units` is DramModel::cost_units() (row-hit-equivalent sectors).
[[nodiscard]] TimingBreakdown compute_timing(const MachineModel& m, const OccupancyInfo& occ,
                                             const TraceCounters& ctr,
                                             double dram_cost_units,
                                             double codegen_slowdown);

/// Assemble the full Nsight-style stats record for a launch.
[[nodiscard]] KernelStats make_stats(const MachineModel& m, std::string name,
                                     const LaunchConfig& cfg, const OccupancyInfo& occ,
                                     const TraceCounters& ctr, double dram_cost_units,
                                     double codegen_slowdown);

/// The issue slots of the address arithmetic and loop control around
/// `mem_ops` memory instructions: Calibration::control_slots_per_mem_op
/// each, added one instruction at a time.
[[nodiscard]] std::uint64_t control_issue_slots(std::uint64_t mem_ops);

}  // namespace gpusim
