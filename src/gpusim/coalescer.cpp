#include "gpusim/coalescer.hpp"

#include <algorithm>

#include "gpusim/log2.hpp"

namespace gpusim {

namespace {

/// Append the units of 2^shift bytes that `lanes` touch, as unit indices, to
/// `out` (cleared first); sorted and deduplicated.  Lanes usually ascend, so
/// a repeat of the previous unit is skipped as it comes and the sort runs
/// only when some unit descended.
void touched_units(std::span<const LaneAccess> lanes, int shift,
                   std::vector<std::uint64_t>& out) {
  out.clear();
  bool ascending = true;
  for (const LaneAccess& a : lanes) {
    const std::uint64_t first = a.addr >> shift;
    const std::uint64_t last = (a.addr + a.size - 1) >> shift;
    for (std::uint64_t u = first; u <= last; ++u) {
      if (!out.empty()) {
        if (u == out.back()) continue;
        ascending = ascending && u > out.back();
      }
      out.push_back(u);
    }
  }
  if (!ascending) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
}

}  // namespace

void coalesce_sectors(std::span<const LaneAccess> lanes, int sector_bytes,
                      std::vector<std::uint64_t>& out) {
  const int shift = exact_log2(sector_bytes, "coalesce_sectors: sector_bytes");
  touched_units(lanes, shift, out);
  for (std::uint64_t& s : out) s <<= shift;
}

BankAnalysis analyze_shared(std::span<const LaneAccess> lanes, int banks, int bank_bytes) {
  const int bank_shift = exact_log2(banks, "analyze_shared: banks");
  // Collect the distinct words each access touches, then count per-bank
  // distinct words; the warp needs max-over-banks wavefronts.
  thread_local std::vector<std::uint64_t> words;
  touched_units(lanes, exact_log2(bank_bytes, "analyze_shared: bank_bytes"), words);

  BankAnalysis res;
  if (words.empty()) return res;

  thread_local std::vector<std::uint32_t> per_bank;
  per_bank.assign(static_cast<std::size_t>(banks), 0);
  const std::uint64_t bank_mask = (std::uint64_t{1} << bank_shift) - 1;
  for (std::uint64_t w : words) ++per_bank[static_cast<std::size_t>(w & bank_mask)];
  res.wavefronts = *std::max_element(per_bank.begin(), per_bank.end());
  res.ideal = static_cast<std::uint32_t>((words.size() + static_cast<std::size_t>(banks) - 1) >>
                                         bank_shift);
  return res;
}

}  // namespace gpusim
