#include "gpusim/dram.hpp"

#include "gpusim/log2.hpp"

namespace gpusim {

DramModel::DramModel(const MachineModel& m)
    : interleave_shift_(exact_log2(m.dram_interleave_bytes, "DramModel: dram_interleave_bytes")),
      row_shift_(exact_log2(m.dram_row_bytes, "DramModel: dram_row_bytes")),
      channel_shift_(exact_log2(m.dram_channels, "DramModel: dram_channels")),
      bank_shift_(exact_log2(m.dram_banks_per_channel, "DramModel: dram_banks_per_channel")),
      open_row_(std::size_t{1} << (channel_shift_ + bank_shift_), ~0ull) {}

bool DramModel::access(std::uint64_t byte_addr) {
  const std::uint64_t chunk = byte_addr >> interleave_shift_;
  const std::uint64_t channel = chunk & ((1ull << channel_shift_) - 1);
  // Row addressing is channel-local: dropping the interleave bits makes a
  // linear stream occupy one row per (channel, bank) for row_bytes/interleave
  // chunks; rows interleave across the channel's banks, so several concurrent
  // streams can keep their rows open simultaneously.
  const std::uint64_t local = ((chunk >> channel_shift_) << interleave_shift_) |
                              (byte_addr & ((1ull << interleave_shift_) - 1));
  const std::uint64_t row = local >> row_shift_;
  const std::uint64_t bank = row & ((1ull << bank_shift_) - 1);
  const auto slot = static_cast<std::size_t>((channel << bank_shift_) | bank);
  ++sectors_;
  if (open_row_[slot] == row) {
    ++row_hits_;
    return true;
  }
  open_row_[slot] = row;
  return false;
}

void DramModel::reset() {
  sectors_ = 0;
  row_hits_ = 0;
  for (auto& r : open_row_) r = ~0ull;
}

}  // namespace gpusim
