// machine.hpp — architectural description of the simulated GPU.
//
// Parameters follow the paper's description of the NVIDIA A100 (§IV-A):
// "40 GB of global memory and a 40 MB L2 cache for the entire GPU, along
// with 108 compute units.  Each compute unit has 192 KB of shared L1 cache
// and local memory, with a maximum of 2,048 processing elements and 65,536
// registers.  It accommodates work-group sizes of up to 1,024 work-items,
// organized into warps of 32 work-items each."
#pragma once

#include <cstdint>

namespace gpusim {

struct MachineModel {
  // -- compute organisation --------------------------------------------------
  int num_sms = 108;              ///< compute units
  int warp_size = 32;             ///< work-items per warp
  int max_threads_per_sm = 2048;  ///< processing elements per compute unit
  int max_groups_per_sm = 32;     ///< resident work-groups per compute unit
  int max_group_size = 1024;      ///< work-items per work-group
  int registers_per_sm = 65536;
  int register_alloc_granularity = 256;  ///< registers allocated in chunks

  // -- memory organisation ---------------------------------------------------
  int shared_bytes_per_sm = 164 * 1024;  ///< usable local-memory carve-out
  int shared_alloc_granularity = 1024;
  int shared_banks = 32;        ///< 4-byte-wide banks
  int shared_bank_bytes = 4;
  int l1_bytes = 128 * 1024;    ///< data-cache portion of the 192 KB L1
  int l2_bytes = 40 * 1024 * 1024;
  int line_bytes = 128;         ///< cache-line (tag) granularity
  int sector_bytes = 32;        ///< fill/transaction granularity
  int l1_ways = 4;
  int l2_ways = 16;

  // -- rates -------------------------------------------------------------------
  double clock_ghz = 1.41;
  double dram_peak_gbs = 1555.0;      ///< HBM2e peak bandwidth
  double l1_sectors_per_cycle = 4.0;  ///< 128 B/cycle/SM LSU throughput
  double smem_wavefronts_per_cycle = 1.0;
  double fp64_lanes_per_cycle = 32.0;  ///< non-tensor FP64 FMA lanes per SM
  int schedulers_per_sm = 4;

  /// DRAM address interleaving and row-buffer organisation (drives the
  /// burst-efficiency part of the model).
  int dram_channels = 32;
  int dram_interleave_bytes = 256;  ///< consecutive chunk per channel
  int dram_row_bytes = 8192;        ///< open-row granularity per bank
  int dram_banks_per_channel = 32;  ///< concurrently open rows per channel

  // -- reference peaks (for "percent of peak" reporting) ----------------------
  double fp64_peak_tflops = 9.7;
  /// The paper reports percent-of-peak against an empirical 7.6 TFLOP/s.
  double empirical_peak_tflops = 7.6;

  [[nodiscard]] double clock_hz() const { return clock_ghz * 1e9; }
  [[nodiscard]] int sectors_per_line() const { return line_bytes / sector_bytes; }
};

/// The NVIDIA A100-40GB model used throughout the paper's evaluation.
[[nodiscard]] constexpr MachineModel a100() { return MachineModel{}; }

}  // namespace gpusim
