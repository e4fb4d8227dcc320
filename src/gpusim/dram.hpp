// dram.hpp — HBM channel / row-buffer model.
//
// The model's job is to distinguish *streaming* miss traffic (long runs of
// consecutive sectors, as produced by coalesced k-major kernels or SoA
// layouts) from *scattered* traffic (per-thread strided streams, as produced
// by 1LP-style site-per-thread kernels over AoS data).  Sectors that hit the
// open row of their channel cost 1 unit; row misses cost
// Calibration::dram_row_miss_penalty units.  Effective bandwidth is the peak
// scaled by (sectors / cost-units).
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/calibration.hpp"
#include "gpusim/machine.hpp"

namespace gpusim {

class DramModel {
 public:
  /// The machine's dram_interleave_bytes, dram_row_bytes, dram_channels and
  /// dram_banks_per_channel must be powers of two; throws
  /// std::invalid_argument naming the offending field otherwise.
  explicit DramModel(const MachineModel& m);

  /// Service one 32 B sector (fill or write-back).  Returns true on row hit.
  bool access(std::uint64_t byte_addr);

  /// Service `n` sectors whose addresses are unknown (victim write-backs);
  /// charged conservatively as row misses.
  void access_opaque(std::uint64_t n) { sectors_ += n; }

  [[nodiscard]] std::uint64_t sectors() const { return sectors_; }
  [[nodiscard]] std::uint64_t row_hits() const { return row_hits_; }
  [[nodiscard]] std::uint64_t row_misses() const { return sectors_ - row_hits_; }

  /// Total service cost in row-hit-equivalent units.
  [[nodiscard]] double cost_units() const {
    return static_cast<double>(row_hits_) +
           kCalibration.dram_row_miss_penalty * static_cast<double>(sectors_ - row_hits_);
  }

  /// Burst efficiency in (0, 1]: 1.0 when every sector hits an open row.
  [[nodiscard]] double burst_efficiency() const {
    if (sectors_ == 0) return 1.0;
    return static_cast<double>(sectors_) / cost_units();
  }

  void reset();

 private:
  int interleave_shift_;
  int row_shift_;
  int channel_shift_;
  int bank_shift_;
  std::vector<std::uint64_t> open_row_;
  std::uint64_t sectors_ = 0;
  std::uint64_t row_hits_ = 0;
};

}  // namespace gpusim
