#include "gpusim/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace gpusim {

namespace {

int checked_sector_bytes(const MachineModel& m) {
  if (m.sector_bytes < 4) {
    throw std::invalid_argument(
        "pipeline: sector_bytes must be at least 4 (L2 requests carry two flag bits), got " +
        std::to_string(m.sector_bytes));
  }
  return m.sector_bytes;
}

}  // namespace

L1FrontEnd::L1FrontEnd(const MachineModel& m, TraceCounters& ctr, int first_sm, int sm_stride)
    : sector_bytes_(checked_sector_bytes(m)),
      shared_banks_(m.shared_banks),
      shared_bank_bytes_(m.shared_bank_bytes),
      sm_stride_(sm_stride),
      ctr_(ctr) {
  assert(sm_stride >= 1 && first_sm >= 0 && first_sm < sm_stride);
  for (int s = first_sm; s < m.num_sms; s += sm_stride) {
    l1_.emplace_back(m.l1_bytes, m.line_bytes, m.sector_bytes, m.l1_ways);
  }
}

void L1FrontEnd::global_load(int sm, std::span<const LaneAccess> lanes) {
  ++ctr_.global_load_ops;
  coalesce_sectors(lanes, sector_bytes_, sectors_);
  SectoredCache& cache = l1(sm);
  for (std::uint64_t s : sectors_) {
    ++ctr_.l1_tag_requests_global;
    const SectoredCache::Outcome out = cache.access(s, /*write=*/false, /*allocate=*/true);
    if (out.hit) {
      ++ctr_.l1_sector_hits;
    } else {
      ++ctr_.l1_sector_misses;
      requests_.push_back(s | kL2DramFill);
    }
  }
}

void L1FrontEnd::global_store(int sm, std::span<const LaneAccess> lanes) {
  ++ctr_.global_store_ops;
  coalesce_sectors(lanes, sector_bytes_, sectors_);
  SectoredCache& cache = l1(sm);
  for (std::uint64_t s : sectors_) {
    // Write-through / no-allocate at L1: the access still consumes an L1 tag
    // lookup (and updates the sector if present), then writes into L2.
    ++ctr_.l1_tag_requests_global;
    cache.access(s, /*write=*/false, /*allocate=*/false);
    // Write-allocate in L2 without a DRAM fetch (write-combined sectors).
    requests_.push_back(s | kL2Write);
  }
}

void L1FrontEnd::global_atomic(std::span<const LaneAccess> lanes) {
  ++ctr_.atomic_ops;
  ctr_.atomic_lane_updates += lanes.size();

  // Same-address lane updates within one instruction serialise at the L2
  // atomic unit; distinct addresses proceed in parallel across slices.
  addrs_.clear();
  for (const LaneAccess& a : lanes) addrs_.push_back(a.addr);
  std::sort(addrs_.begin(), addrs_.end());
  std::size_t i = 0;
  while (i < addrs_.size()) {
    std::size_t j = i + 1;
    while (j < addrs_.size() && addrs_[j] == addrs_[i]) ++j;
    ctr_.atomic_serial_replays += static_cast<std::uint64_t>(j - i - 1);
    i = j;
  }

  // Each distinct sector is a read-modify-write in L2 (bypasses L1).
  coalesce_sectors(lanes, sector_bytes_, sectors_);
  for (std::uint64_t s : sectors_) requests_.push_back(s | kL2Write | kL2DramFill);
}

void L1FrontEnd::shared_access(std::span<const LaneAccess> lanes) {
  ++ctr_.shared_ops;
  const BankAnalysis res = analyze_shared(lanes, shared_banks_, shared_bank_bytes_);
  ctr_.shared_wavefronts += res.wavefronts;
  ctr_.shared_wavefronts_ideal += res.ideal;
}

void L1FrontEnd::reset() {
  for (auto& c : l1_) c.reset();
  requests_.clear();
}

PerfPipeline::PerfPipeline(const MachineModel& m)
    : l2_(m.l2_bytes, m.line_bytes, checked_sector_bytes(m), m.l2_ways), dram_(m) {}

void PerfPipeline::l2_fill_path(std::uint64_t sector_addr, bool write, bool count_dram_fill) {
  ++ctr_.l2_sector_requests;
  const SectoredCache::Outcome out = l2_.access(sector_addr, write, /*allocate=*/true);
  if (out.hit) {
    ++ctr_.l2_sector_hits;
  } else {
    ++ctr_.l2_sector_misses;
    if (count_dram_fill) {
      const bool row_hit = dram_.access(sector_addr);
      ++ctr_.dram_sectors;
      row_hit ? ++ctr_.dram_row_hits : ++ctr_.dram_row_misses;
    }
  }
  if (out.writeback_sectors > 0) {
    dram_.access_opaque(static_cast<std::uint64_t>(out.writeback_sectors));
    ctr_.dram_sectors += static_cast<std::uint64_t>(out.writeback_sectors);
    ctr_.dram_row_misses += static_cast<std::uint64_t>(out.writeback_sectors);
  }
}

void PerfPipeline::replay_l2(std::span<const L2Request> requests) {
  for (const L2Request r : requests) {
    l2_fill_path(r & ~(kL2Write | kL2DramFill), (r & kL2Write) != 0, (r & kL2DramFill) != 0);
  }
}

void PerfPipeline::finalize() {
  const std::int64_t dirty = l2_.flush();
  if (dirty > 0) {
    dram_.access_opaque(static_cast<std::uint64_t>(dirty));
    ctr_.dram_sectors += static_cast<std::uint64_t>(dirty);
    ctr_.dram_row_misses += static_cast<std::uint64_t>(dirty);
  }
}

void PerfPipeline::reset() {
  l2_.reset();
  dram_.reset();
  ctr_ = TraceCounters{};
}

}  // namespace gpusim
