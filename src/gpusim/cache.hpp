// cache.hpp — sectored, set-associative cache model.
//
// NVIDIA GPUs tag cache lines at 128 B but fill and transfer at 32 B sector
// granularity; a "tag request" that finds the line but not the sector still
// costs a fill.  Both the per-SM L1 and the device-wide L2 are instances of
// this model (with different size/associativity and write policies decided
// by the pipeline).
//
// Replacement is exact LRU.  Lines leave a set only by eviction or by a
// whole-cache flush()/reset(), so each set keeps its resident lines in
// recency order (most recent first) behind one fill count: a hit moves its
// line to the front, a fill installs at the front and evicts the last line
// of a full set.
#pragma once

#include <cstdint>
#include <vector>

namespace gpusim {

class SectoredCache {
 public:
  /// line_bytes and sector_bytes must be powers of two with at most 32
  /// sectors per line, 1 <= ways <= 255, and total_bytes a positive multiple
  /// of line_bytes * ways (the set count may be any value).  Throws
  /// std::invalid_argument naming the offending field otherwise.
  SectoredCache(std::int64_t total_bytes, int line_bytes, int sector_bytes, int ways);

  struct Outcome {
    bool hit = false;            ///< requested sector present
    int writeback_sectors = 0;   ///< dirty sectors evicted by this access
  };

  /// Access one sector.  `write` marks the sector dirty (write-back policy);
  /// `allocate` controls whether a miss installs the line/sector (false for
  /// write-through-no-allocate policies).
  Outcome access(std::uint64_t byte_addr, bool write, bool allocate = true);

  /// Evict everything, returning the number of dirty sectors flushed.
  std::int64_t flush();

  void reset();

  [[nodiscard]] int sectors_per_line() const { return sectors_per_line_; }
  [[nodiscard]] std::int64_t sets() const { return static_cast<std::int64_t>(sets_); }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint32_t valid_mask = 0;
    std::uint32_t dirty_mask = 0;
  };

  int line_shift_ = 0;
  int sector_shift_ = 0;
  std::uint64_t sector_mask_ = 0;  // sectors_per_line_ - 1
  int ways_ = 0;
  int sectors_per_line_ = 0;
  std::size_t sets_ = 0;
  bool sets_pow2_ = false;
  std::vector<Line> lines_;        // sets_ * ways_, row-major by set, MRU first
  std::vector<std::uint8_t> fill_;  // resident lines per set
};

}  // namespace gpusim
