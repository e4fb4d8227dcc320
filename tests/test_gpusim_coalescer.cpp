// Warp coalescer and shared-memory bank-conflict model tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "gpusim/coalescer.hpp"

namespace gpusim {
namespace {

std::vector<LaneAccess> warp(std::uint64_t base, std::uint64_t stride, std::uint8_t size,
                             int lanes = 32) {
  std::vector<LaneAccess> v;
  for (int l = 0; l < lanes; ++l) {
    v.push_back({base + static_cast<std::uint64_t>(l) * stride, size,
                 static_cast<std::uint8_t>(l)});
  }
  return v;
}

int sectors_of(const std::vector<LaneAccess>& lanes) {
  std::vector<std::uint64_t> out;
  coalesce_sectors(lanes, 32, out);
  return static_cast<int>(out.size());
}

TEST(Coalescer, FullyCoalesced4B) {
  // 32 lanes x 4 B consecutive = 128 B = 4 sectors.
  EXPECT_EQ(sectors_of(warp(0, 4, 4)), 4);
}

TEST(Coalescer, FullyCoalesced8B) {
  // 32 lanes x 8 B consecutive = 256 B = 8 sectors.
  EXPECT_EQ(sectors_of(warp(0, 8, 8)), 8);
}

TEST(Coalescer, Strided128BIsWorstCase) {
  // Each lane in its own sector.
  EXPECT_EQ(sectors_of(warp(0, 128, 8)), 32);
}

TEST(Coalescer, BroadcastIsOneSector) {
  EXPECT_EQ(sectors_of(warp(0x40, 0, 8)), 1);
}

TEST(Coalescer, UnalignedAccessStraddlesSectors) {
  // A single 16 B access at offset 24 touches sectors 0 and 1.
  std::vector<LaneAccess> v = {{24, 16, 0}};
  EXPECT_EQ(sectors_of(v), 2);
}

TEST(Coalescer, SiteStride2304Pattern) {
  // The 1LP AoS pattern: consecutive lanes 2304 B apart (one site block),
  // 16 B loads -> 32 distinct sectors per instruction.
  EXPECT_EQ(sectors_of(warp(0, 2304, 16)), 32);
}

TEST(Coalescer, RowStride48Pattern) {
  // The 3LP k-major pattern: lanes 48 B apart, 16 B loads.  Each lane's 16 B
  // falls in its own sector (gap > sector), but the 32 sectors span a dense
  // 1536 B window — the k-major advantage shows up as L1 line reuse across
  // the j-loop, not at the single-instruction coalescer.
  EXPECT_EQ(sectors_of(warp(0, 48, 16)), 32);
  // The warp's three j-instructions together touch exactly the dense window.
  std::vector<LaneAccess> all;
  for (std::uint64_t j = 0; j < 3; ++j) {
    for (int l = 0; l < 32; ++l) {
      all.push_back({static_cast<std::uint64_t>(l) * 48 + j * 16, 16,
                     static_cast<std::uint8_t>(l)});
    }
  }
  std::vector<std::uint64_t> out;
  coalesce_sectors(all, 32, out);
  EXPECT_EQ(out.size(), 48u);  // 1536 B / 32 B, no waste
}

TEST(Coalescer, OutputSortedUnique) {
  std::vector<LaneAccess> v = {{96, 8, 0}, {0, 8, 1}, {96, 8, 2}, {32, 8, 3}};
  std::vector<std::uint64_t> out;
  coalesce_sectors(v, 32, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 32u);
  EXPECT_EQ(out[2], 96u);
}

// The sort + unique reference both analyses must match: every unit of
// `unit` bytes each access touches, divided out, sorted and deduplicated.
std::vector<std::uint64_t> reference_units(const std::vector<LaneAccess>& lanes,
                                           std::uint64_t unit) {
  std::vector<std::uint64_t> out;
  for (const LaneAccess& a : lanes) {
    for (std::uint64_t u = a.addr / unit; u <= (a.addr + a.size - 1) / unit; ++u) {
      out.push_back(u);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

BankAnalysis reference_banks(const std::vector<LaneAccess>& lanes, int banks, int bank_bytes) {
  const std::vector<std::uint64_t> words =
      reference_units(lanes, static_cast<std::uint64_t>(bank_bytes));
  BankAnalysis res;
  if (words.empty()) return res;
  std::vector<std::uint32_t> per_bank(static_cast<std::size_t>(banks), 0);
  for (std::uint64_t w : words) ++per_bank[w % static_cast<std::uint64_t>(banks)];
  res.wavefronts = *std::max_element(per_bank.begin(), per_bank.end());
  res.ideal = static_cast<std::uint32_t>((words.size() + static_cast<std::size_t>(banks) - 1) /
                                         static_cast<std::size_t>(banks));
  return res;
}

void expect_matches_reference(const std::vector<LaneAccess>& lanes) {
  for (int sector_bytes : {16, 32, 64}) {
    std::vector<std::uint64_t> want = reference_units(lanes, static_cast<std::uint64_t>(sector_bytes));
    for (std::uint64_t& s : want) s *= static_cast<std::uint64_t>(sector_bytes);
    std::vector<std::uint64_t> got;
    coalesce_sectors(lanes, sector_bytes, got);
    EXPECT_EQ(got, want) << "sector_bytes " << sector_bytes;
  }
  for (int banks : {16, 32}) {
    for (int bank_bytes : {4, 8}) {
      const BankAnalysis got = analyze_shared(lanes, banks, bank_bytes);
      const BankAnalysis want = reference_banks(lanes, banks, bank_bytes);
      EXPECT_EQ(got.wavefronts, want.wavefronts) << banks << " banks of " << bank_bytes << " B";
      EXPECT_EQ(got.ideal, want.ideal) << banks << " banks of " << bank_bytes << " B";
    }
  }
}

TEST(Coalescer, MatchesSortUniqueReference) {
  std::mt19937_64 rng(20261017);
  const std::uint8_t sizes[] = {4, 8, 16};
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng() % 33);
    const std::uint8_t size = sizes[rng() % 3];
    const std::uint64_t base = 4096 + (rng() % 4096) * 4;
    const std::uint64_t stride = size * (1 + rng() % 6);
    std::vector<LaneAccess> random, ascending, descending, same, straddling;
    for (int l = 0; l < n; ++l) {
      const auto lane = static_cast<std::uint8_t>(l);
      const auto ul = static_cast<std::uint64_t>(l);
      random.push_back({base + (rng() % 512) * 4, size, lane});
      ascending.push_back({base + ul * stride, size, lane});
      descending.push_back({base + (32 - ul) * stride, size, lane});
      same.push_back({base, size, lane});
      // 20 B past a 24 B-strided base: lanes cross 16, 32 and 64 B units.
      straddling.push_back({base + ul * 24 + 20, size, lane});
    }
    for (const auto* lanes : {&random, &ascending, &descending, &same, &straddling}) {
      expect_matches_reference(*lanes);
    }
  }
}

TEST(Coalescer, RejectsNonPowerOfTwoSizes) {
  const auto v = warp(0, 4, 4);
  std::vector<std::uint64_t> out;
  EXPECT_THROW(coalesce_sectors(v, 24, out), std::invalid_argument);
  EXPECT_THROW(coalesce_sectors(v, 0, out), std::invalid_argument);
  EXPECT_THROW((void)analyze_shared(v, 24, 4), std::invalid_argument);
  EXPECT_THROW((void)analyze_shared(v, 32, 6), std::invalid_argument);
}

// ------------------------------------------------------------------- banks --

TEST(Banks, ConflictFreeUnitStride) {
  // Lane l accesses word l: every bank exactly once.
  const auto v = warp(0, 4, 4);
  const auto r = analyze_shared(v, 32, 4);
  EXPECT_EQ(r.wavefronts, 1u);
  EXPECT_EQ(r.ideal, 1u);
  EXPECT_EQ(r.excessive(), 0u);
}

TEST(Banks, TwoWayConflictStride2) {
  // Lane l accesses word 2l: banks 0,2,..,30 each serve two distinct words.
  const auto v = warp(0, 8, 4);
  const auto r = analyze_shared(v, 32, 4);
  EXPECT_EQ(r.wavefronts, 2u);
  EXPECT_EQ(r.ideal, 1u);
  EXPECT_EQ(r.excessive(), 1u);
}

TEST(Banks, BroadcastIsFree) {
  const auto v = warp(0x80, 0, 4);
  const auto r = analyze_shared(v, 32, 4);
  EXPECT_EQ(r.wavefronts, 1u);
  EXPECT_EQ(r.excessive(), 0u);
}

TEST(Banks, EightByteAccessesNeedTwoWavefronts) {
  // 32 lanes x 8 B unit stride: 64 words over 32 banks -> 2 wavefronts, and
  // that is also the ideal (256 B of distinct data).
  const auto v = warp(0, 8, 8);
  const auto r = analyze_shared(v, 32, 4);
  EXPECT_EQ(r.wavefronts, 2u);
  EXPECT_EQ(r.ideal, 2u);
  EXPECT_EQ(r.excessive(), 0u);
}

TEST(Banks, SixteenByteStridedConflicts) {
  // 16 B accesses at 16 B stride (the 3LP-1 local array pattern): lane l
  // touches words 4l..4l+3; bank b serves words {b, b+32, b+64, b+96} for
  // the 128-word span -> 4-way conflict.
  const auto v = warp(0, 16, 16);
  const auto r = analyze_shared(v, 32, 4);
  EXPECT_EQ(r.wavefronts, 4u);
  EXPECT_EQ(r.ideal, 4u);  // 512 B of distinct words is also 4 wavefronts minimum
  EXPECT_EQ(r.excessive(), 0u);
}

TEST(Banks, WorstCaseSameBank) {
  // Lane l accesses word 32*l: all in bank 0 -> 32 wavefronts.
  const auto v = warp(0, 128, 4);
  const auto r = analyze_shared(v, 32, 4);
  EXPECT_EQ(r.wavefronts, 32u);
  EXPECT_EQ(r.ideal, 1u);
  EXPECT_EQ(r.excessive(), 31u);
}

TEST(Banks, EmptyInput) {
  const std::vector<LaneAccess> v;
  const auto r = analyze_shared(v, 32, 4);
  EXPECT_EQ(r.wavefronts, 0u);
  EXPECT_EQ(r.ideal, 0u);
}

}  // namespace
}  // namespace gpusim
