#include "gpusim/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "gpusim/log2.hpp"

namespace gpusim {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("SectoredCache: ") + what);
}

}  // namespace

SectoredCache::SectoredCache(std::int64_t total_bytes, int line_bytes, int sector_bytes,
                             int ways)
    : line_shift_(exact_log2(line_bytes, "SectoredCache: line_bytes")),
      sector_shift_(exact_log2(sector_bytes, "SectoredCache: sector_bytes")) {
  require(line_shift_ >= sector_shift_ && line_shift_ - sector_shift_ <= 5,
          "line_bytes must be a multiple of sector_bytes, at most 32 sectors");
  require(ways >= 1 && ways <= std::numeric_limits<std::uint8_t>::max(),
          "ways must be in [1, 255]");
  const std::int64_t set_bytes = static_cast<std::int64_t>(line_bytes) * ways;
  require(total_bytes > 0 && total_bytes % set_bytes == 0,
          "total_bytes must be a positive multiple of line_bytes * ways");
  sectors_per_line_ = line_bytes / sector_bytes;
  sector_mask_ = static_cast<std::uint64_t>(sectors_per_line_ - 1);
  ways_ = ways;
  sets_ = static_cast<std::size_t>(total_bytes / set_bytes);
  sets_pow2_ = std::has_single_bit(sets_);
  lines_.resize(sets_ * static_cast<std::size_t>(ways_));
  fill_.assign(sets_, 0);
}

SectoredCache::Outcome SectoredCache::access(std::uint64_t byte_addr, bool write,
                                             bool allocate) {
  const std::uint64_t line_addr = byte_addr >> line_shift_;
  const std::uint32_t sector_bit = 1u << ((byte_addr >> sector_shift_) & sector_mask_);
  const std::size_t set = sets_pow2_ ? static_cast<std::size_t>(line_addr & (sets_ - 1))
                                     : static_cast<std::size_t>(line_addr % sets_);
  Line* base = &lines_[set * static_cast<std::size_t>(ways_)];
  std::uint8_t& fill = fill_[set];

  // Look for the line; a hit becomes the most recent.
  for (int w = 0; w < fill; ++w) {
    if (base[w].tag != line_addr) continue;
    Line ln = base[w];
    std::copy_backward(base, base + w, base + w + 1);
    Outcome out;
    out.hit = (ln.valid_mask & sector_bit) != 0;
    if (!out.hit && allocate) ln.valid_mask |= sector_bit;
    if (write && (out.hit || allocate)) ln.dirty_mask |= sector_bit;
    base[0] = ln;
    return out;
  }

  // Miss: no matching line.
  if (!allocate) return {};

  // Install at the front, evicting the least recent line of a full set.
  Outcome out;
  if (fill == ways_) {
    out.writeback_sectors = std::popcount(base[ways_ - 1].dirty_mask);
  } else {
    ++fill;
  }
  std::copy_backward(base, base + fill - 1, base + fill);
  base[0] = Line{line_addr, sector_bit, write ? sector_bit : 0u};
  return out;
}

std::int64_t SectoredCache::flush() {
  std::int64_t dirty = 0;
  for (std::size_t s = 0; s < sets_; ++s) {
    const Line* base = &lines_[s * static_cast<std::size_t>(ways_)];
    for (int w = 0; w < fill_[s]; ++w) dirty += std::popcount(base[w].dirty_mask);
  }
  reset();
  return dirty;
}

void SectoredCache::reset() { std::fill(fill_.begin(), fill_.end(), std::uint8_t{0}); }

}  // namespace gpusim
