// occupancy.hpp — CUDA-style occupancy calculator.
//
// Residency per SM is bounded by threads, registers (warp-granular
// allocation), shared-memory carve-out and the hardware group limit; the
// achieved occupancy additionally reflects the partially-filled tail wave of
// the grid (paper Table I row 4: e.g. local size 768 → 2 groups/SM → 1536 of
// 2048 threads → 75% theoretical, ~72–74% achieved).
#pragma once

#include "gpusim/machine.hpp"
#include "gpusim/stats.hpp"

namespace gpusim {

/// Compute residency and occupancy for a launch.  Throws std::invalid_argument
/// if the launch cannot fit at all (e.g. shared memory per group exceeds the
/// SM carve-out).
[[nodiscard]] OccupancyInfo compute_occupancy(const MachineModel& m, const LaunchConfig& cfg);

}  // namespace gpusim
