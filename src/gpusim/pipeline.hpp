// pipeline.hpp — replays merged warp instructions through the simulated
// memory hierarchy (per-SM L1 caches → shared L2 → DRAM channel model) and
// accumulates the raw trace counters.
//
// Write policies mirror the A100: L1 is write-through/no-allocate for global
// stores, L2 is write-back/write-allocate; atomics bypass L1 and
// read-modify-write in L2.  Loads allocate in both levels.
//
// The hierarchy splits at L1.  An L1FrontEnd owns the L1s of a set of SMs
// and decides everything that is per SM: coalescing, L1 lookups,
// shared-bank conflicts and atomic replays.  What leaves an SM — L1 misses,
// stores and atomics — becomes a list of L2 requests, which PerfPipeline
// (L2 + DRAM) replays in order.  That is the only way through the
// hierarchy: the profiled executor runs one front end per host worker and
// replays their lists in schedule order on one thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/dram.hpp"
#include "gpusim/machine.hpp"
#include "gpusim/stats.hpp"

namespace gpusim {

/// One request from an SM to L2: a sector address with two flags in its low
/// bits (sectors are at least 4 B, so the bits are free).
using L2Request = std::uint64_t;
inline constexpr L2Request kL2Write = 1;      ///< the access dirties the sector
inline constexpr L2Request kL2DramFill = 2;   ///< an L2 miss fetches from DRAM

/// The per-SM half of the hierarchy.
class L1FrontEnd {
 public:
  /// Owns the L1s of SMs first_sm, first_sm + sm_stride, ... < m.num_sms
  /// (0 <= first_sm < sm_stride) and adds the counters it decides to `ctr`.
  /// Throws std::invalid_argument for a sector below 4 B.
  L1FrontEnd(const MachineModel& m, TraceCounters& ctr, int first_sm = 0, int sm_stride = 1);

  /// One warp-level global load instruction (one divergence path group).
  void global_load(int sm, std::span<const LaneAccess> lanes);

  /// One warp-level global store instruction.
  void global_store(int sm, std::span<const LaneAccess> lanes);

  /// One warp-level global atomic read-modify-write (relaxed add).
  void global_atomic(std::span<const LaneAccess> lanes);

  /// One warp-level shared (work-group local) memory instruction.
  void shared_access(std::span<const LaneAccess> lanes);

  [[nodiscard]] TraceCounters& counters() { return ctr_; }

  /// The L2 requests issued since the list was last emptied, in issue order.
  [[nodiscard]] std::vector<L2Request>& l2_requests() { return requests_; }

  void reset();

 private:
  SectoredCache& l1(int sm) { return l1_[static_cast<std::size_t>(sm / sm_stride_)]; }

  int sector_bytes_;
  int shared_banks_;
  int shared_bank_bytes_;
  int sm_stride_;
  TraceCounters& ctr_;
  std::vector<SectoredCache> l1_;
  std::vector<L2Request> requests_;
  std::vector<std::uint64_t> sectors_;  // scratch
  std::vector<std::uint64_t> addrs_;    // scratch
};

/// The L2 + DRAM back end.
class PerfPipeline {
 public:
  /// Throws std::invalid_argument for a sector below 4 B.
  explicit PerfPipeline(const MachineModel& m);

  /// Run L1FrontEnd requests through L2 and DRAM, in order.
  void replay_l2(std::span<const L2Request> requests);

  /// Flush dirty L2 sectors to DRAM (end of kernel).
  void finalize();

  [[nodiscard]] TraceCounters& counters() { return ctr_; }
  [[nodiscard]] const TraceCounters& counters() const { return ctr_; }
  [[nodiscard]] const DramModel& dram() const { return dram_; }

  void reset();

 private:
  void l2_fill_path(std::uint64_t sector_addr, bool write, bool count_dram_fill);

  SectoredCache l2_;
  DramModel dram_;
  TraceCounters ctr_;
};

}  // namespace gpusim
