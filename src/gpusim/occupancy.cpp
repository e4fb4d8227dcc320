#include "gpusim/occupancy.hpp"

#include <algorithm>
#include <stdexcept>

#include "gpusim/calibration.hpp"

namespace gpusim {

namespace {

int round_up(int v, int granularity) {
  return ((v + granularity - 1) / granularity) * granularity;
}

}  // namespace

OccupancyInfo compute_occupancy(const MachineModel& m, const LaunchConfig& cfg) {
  if (cfg.local_size <= 0 || cfg.local_size > m.max_group_size) {
    throw std::invalid_argument("occupancy: invalid work-group size");
  }
  if (cfg.global_size % cfg.local_size != 0) {
    throw std::invalid_argument(
        "occupancy: global size must be divisible by local size (SYCL nd_range rule)");
  }

  OccupancyInfo info;
  info.warps_per_group = (cfg.local_size + m.warp_size - 1) / m.warp_size;

  const int by_threads = m.max_threads_per_sm / cfg.local_size;

  // Registers are allocated per warp in chunks.
  const int regs_per_warp =
      round_up(std::max(1, cfg.regs_per_thread) * m.warp_size, m.register_alloc_granularity);
  const int warps_by_regs = m.registers_per_sm / regs_per_warp;
  const int by_regs = warps_by_regs / info.warps_per_group;

  int by_shared = m.max_groups_per_sm;
  if (cfg.shared_bytes_per_group > 0) {
    const int alloc = round_up(cfg.shared_bytes_per_group, m.shared_alloc_granularity);
    if (alloc > m.shared_bytes_per_sm) {
      throw std::invalid_argument("occupancy: shared memory per group exceeds SM capacity");
    }
    by_shared = m.shared_bytes_per_sm / alloc;
  }

  info.groups_per_sm = std::min({by_threads, by_regs, by_shared, m.max_groups_per_sm});
  if (info.groups_per_sm <= 0) {
    throw std::invalid_argument("occupancy: launch does not fit on an SM");
  }

  // Tie-break: report the most fundamental limit first.
  if (info.groups_per_sm == by_threads) {
    info.limiter = "threads";
  } else if (info.groups_per_sm == by_regs) {
    info.limiter = "registers";
  } else if (cfg.shared_bytes_per_group > 0 && info.groups_per_sm == by_shared) {
    info.limiter = "shared-memory";
  } else {
    info.limiter = "groups";
  }

  info.warps_per_sm = info.groups_per_sm * info.warps_per_group;
  const int max_warps = m.max_threads_per_sm / m.warp_size;
  info.theoretical = static_cast<double>(info.warps_per_sm) / max_warps;

  // Tail wave: the grid rarely fills an integral number of full device waves.
  const std::int64_t groups = cfg.global_size / cfg.local_size;
  const std::int64_t wave_capacity =
      static_cast<std::int64_t>(info.groups_per_sm) * m.num_sms;
  // An empty nd-range (SYCL 2020 allows one) runs no wave and occupies nothing.
  info.waves = static_cast<int>((groups + wave_capacity - 1) / wave_capacity);
  if (info.waves == 0) return info;
  const double fill = static_cast<double>(groups) /
                      (static_cast<double>(info.waves) * static_cast<double>(wave_capacity));
  info.achieved = info.theoretical * fill * kCalibration.occupancy_ramp_factor;
  return info;
}

}  // namespace gpusim
