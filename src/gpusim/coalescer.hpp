// coalescer.hpp — warp-level global-memory coalescing and shared-memory
// bank-conflict analysis.
//
// A warp instruction presents up to 32 lane accesses.  The coalescer merges
// them into the minimal set of distinct 32 B sectors (Nsight's
// "l1_tag_requests_global" counts exactly these).  The shared-memory
// analyser computes the number of wavefronts needed to service the accesses
// through 32 four-byte-wide banks, and the conflict-free lower bound
// (Nsight's memory_l1_wavefronts_shared vs ..._ideal, Table I rows 11–12).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gpusim {

/// One lane's access within a warp instruction.
struct LaneAccess {
  std::uint64_t addr = 0;  ///< byte address (global) or byte offset (shared)
  std::uint8_t size = 0;   ///< access width in bytes (4, 8 or 16)
  std::uint8_t lane = 0;
};

/// Append the distinct 32 B sector addresses touched by `lanes` to `out`
/// (sorted, deduplicated).  Accesses may straddle sector boundaries.
/// `sector_bytes` must be a power of two (std::invalid_argument otherwise).
void coalesce_sectors(std::span<const LaneAccess> lanes, int sector_bytes,
                      std::vector<std::uint64_t>& out);

struct BankAnalysis {
  std::uint32_t wavefronts = 0;
  std::uint32_t ideal = 0;
  [[nodiscard]] std::uint32_t excessive() const {
    return wavefronts > ideal ? wavefronts - ideal : 0;
  }
};

/// Shared-memory conflict analysis for one warp instruction.  Lanes reading
/// the *same* word broadcast; lanes touching different words in the same
/// bank serialise.  `banks` and `bank_bytes` must be powers of two
/// (std::invalid_argument otherwise).
[[nodiscard]] BankAnalysis analyze_shared(std::span<const LaneAccess> lanes, int banks,
                                          int bank_bytes);

}  // namespace gpusim
