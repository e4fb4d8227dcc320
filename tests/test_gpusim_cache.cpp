// Sectored-cache and DRAM row-buffer model tests.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/dram.hpp"

namespace gpusim {
namespace {

// A tiny cache: 4 sets x 2 ways x 128 B lines = 1 KiB, 32 B sectors.
SectoredCache tiny() { return SectoredCache(1024, 128, 32, 2); }

/// The reference LRU model the recency-ordered SectoredCache must match:
/// every line carries a last-use stamp from a per-access tick, a miss fills
/// the first empty way or else evicts the way with the oldest stamp, and the
/// geometry is divided out on every access.
class ReferenceLruCache {
 public:
  ReferenceLruCache(std::int64_t total_bytes, int line_bytes, int sector_bytes, int ways)
      : line_bytes_(line_bytes),
        sector_bytes_(sector_bytes),
        ways_(ways),
        sectors_per_line_(line_bytes / sector_bytes),
        sets_(static_cast<std::size_t>(total_bytes / (std::int64_t{line_bytes} * ways))),
        lines_(sets_ * static_cast<std::size_t>(ways)) {}

  SectoredCache::Outcome access(std::uint64_t byte_addr, bool write, bool allocate) {
    const std::uint64_t line_addr = byte_addr / static_cast<std::uint64_t>(line_bytes_);
    const auto sector = static_cast<std::uint32_t>(
        (byte_addr / static_cast<std::uint64_t>(sector_bytes_)) %
        static_cast<std::uint64_t>(sectors_per_line_));
    const std::uint32_t sector_bit = 1u << sector;
    Line* base = &lines_[static_cast<std::size_t>(line_addr % sets_) *
                         static_cast<std::size_t>(ways_)];
    ++tick_;
    for (int w = 0; w < ways_; ++w) {
      Line& ln = base[w];
      if (ln.tag == line_addr && ln.valid_mask != 0) {
        ln.lru = tick_;
        SectoredCache::Outcome out;
        out.hit = (ln.valid_mask & sector_bit) != 0;
        if (!out.hit && allocate) ln.valid_mask |= sector_bit;
        if (write && (out.hit || allocate)) ln.dirty_mask |= sector_bit;
        return out;
      }
    }
    if (!allocate) return {};
    Line* victim = base;
    for (int w = 0; w < ways_; ++w) {
      if (base[w].valid_mask == 0) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    SectoredCache::Outcome out;
    out.writeback_sectors = std::popcount(victim->dirty_mask);
    *victim = Line{line_addr, sector_bit, write ? sector_bit : 0u, tick_};
    return out;
  }

  std::int64_t flush() {
    std::int64_t dirty = 0;
    for (Line& ln : lines_) {
      dirty += std::popcount(ln.dirty_mask);
      ln = Line{};
    }
    return dirty;
  }

  void reset() {
    for (Line& ln : lines_) ln = Line{};
    tick_ = 0;
  }

 private:
  struct Line {
    std::uint64_t tag = ~0ull;
    std::uint32_t valid_mask = 0;
    std::uint32_t dirty_mask = 0;
    std::uint64_t lru = 0;
  };

  int line_bytes_;
  int sector_bytes_;
  int ways_;
  int sectors_per_line_;
  std::size_t sets_;
  std::uint64_t tick_ = 0;
  std::vector<Line> lines_;
};

/// Expects `make()` to throw std::invalid_argument whose message names `field`.
template <typename Make>
void expect_rejected(Make make, const std::string& field) {
  try {
    make();
    ADD_FAILURE() << "no exception; expected one naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(SectoredCache, ColdMissThenHit) {
  auto c = tiny();
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x101f, false).hit);  // same sector
}

TEST(SectoredCache, SectorGranularity) {
  auto c = tiny();
  EXPECT_FALSE(c.access(0x0, false).hit);
  // Same 128 B line, different 32 B sector: line present, sector missing.
  EXPECT_FALSE(c.access(0x20, false).hit);
  EXPECT_TRUE(c.access(0x20, false).hit);
  EXPECT_TRUE(c.access(0x0, false).hit);  // first sector still resident
}

TEST(SectoredCache, LruEviction) {
  auto c = tiny();
  // Three lines mapping to the same set (set stride = 4 lines = 512 B).
  EXPECT_FALSE(c.access(0 * 512, false).hit);
  EXPECT_FALSE(c.access(1 * 512, false).hit);
  EXPECT_TRUE(c.access(0 * 512, false).hit);   // touch line 0 -> line 1 is LRU
  EXPECT_FALSE(c.access(2 * 512, false).hit);  // evicts line 1
  EXPECT_TRUE(c.access(0 * 512, false).hit);
  EXPECT_FALSE(c.access(1 * 512, false).hit);  // line 1 was evicted
}

TEST(SectoredCache, DirtyWritebackOnEviction) {
  auto c = tiny();
  c.access(0 * 512, true);   // dirty sector
  c.access(0 * 512 + 32, true);  // second dirty sector, same line
  c.access(1 * 512, false);
  const auto out = c.access(2 * 512, false);  // evicts the dirty line (LRU)
  EXPECT_EQ(out.writeback_sectors, 2);
}

TEST(SectoredCache, NoAllocateLeavesCacheCold) {
  auto c = tiny();
  EXPECT_FALSE(c.access(0x40, false, /*allocate=*/false).hit);
  EXPECT_FALSE(c.access(0x40, false).hit);  // still a miss: nothing was installed
}

TEST(SectoredCache, FlushReturnsDirtySectors) {
  auto c = tiny();
  c.access(0, true);     // set 0, dirty
  c.access(128, true);   // set 1, dirty
  c.access(256, false);  // set 2, clean
  EXPECT_EQ(c.flush(), 2);
  EXPECT_FALSE(c.access(0, false).hit);
}

TEST(SectoredCache, ResetClears) {
  auto c = tiny();
  c.access(0, false);
  c.reset();
  EXPECT_FALSE(c.access(0, false).hit);
}

TEST(SectoredCache, CapacityHoldsWorkingSet) {
  // 1 KiB cache must keep a 1 KiB working set resident (no conflict misses
  // with perfect alignment: 8 lines over 4 sets x 2 ways).
  auto c = tiny();
  for (int rep = 0; rep < 3; ++rep) {
    int misses = 0;
    for (std::uint64_t a = 0; a < 1024; a += 32) {
      if (!c.access(a, false).hit) ++misses;
    }
    if (rep == 0) {
      EXPECT_EQ(misses, 32);  // cold
    } else {
      EXPECT_EQ(misses, 0);  // fully resident
    }
  }
}

TEST(SectoredCache, RejectsBadGeometry) {
  expect_rejected([] { SectoredCache(96 * 2 * 4, 96, 32, 2); }, "line_bytes");
  expect_rejected([] { SectoredCache(1024, 128, 24, 2); }, "sector_bytes");
  expect_rejected([] { SectoredCache(1024, 128, 0, 2); }, "sector_bytes");
  // A sector larger than its line, and 64 sectors per line (the valid and
  // dirty masks hold 32).
  expect_rejected([] { SectoredCache(1024, 32, 64, 2); }, "at most 32 sectors");
  expect_rejected([] { SectoredCache(1024, 128, 2, 2); }, "at most 32 sectors");
  expect_rejected([] { SectoredCache(1024, 128, 32, 0); }, "ways");
  expect_rejected([] { SectoredCache(128 * 256, 128, 32, 256); }, "ways");
  expect_rejected([] { SectoredCache(1000, 128, 32, 2); }, "total_bytes");
  expect_rejected([] { SectoredCache(0, 128, 32, 2); }, "total_bytes");
  // The set count alone may be any value (the A100 L2 has 20 480 sets).
  EXPECT_EQ(SectoredCache(3 * 128 * 2, 128, 32, 2).sets(), 3);
  EXPECT_EQ(SectoredCache(40 * 1024 * 1024, 128, 32, 16).sets(), 20480);
}

// The recency-ordered cache against the stamped reference, per access, on one
// seeded stream of (addr, write, allocate) with periodic flushes and a reset.
void expect_matches_reference(std::int64_t total_bytes, int ways) {
  SectoredCache cache(total_bytes, 128, 32, ways);
  ReferenceLruCache ref(total_bytes, 128, 32, ways);
  const auto sets = static_cast<std::uint64_t>(cache.sets());
  std::mt19937_64 rng(20261017 + static_cast<std::uint64_t>(total_bytes) + ways);
  // A few dozen hot sets, each cycling through more tags than it has ways,
  // so hits, sector fills and dirty evictions are all frequent; one access in
  // eight goes anywhere in a 16 GiB window.
  std::vector<std::uint64_t> hot_sets(48);
  for (std::uint64_t& s : hot_sets) s = rng() % sets;
  const std::uint64_t tags = 2 * static_cast<std::uint64_t>(ways) + 1;
  std::int64_t hits = 0;
  std::int64_t writebacks = 0;
  for (int i = 1; i <= 60000; ++i) {
    std::uint64_t addr = 0;
    if (rng() % 8 == 0) {
      addr = rng() % (std::uint64_t{1} << 34);
    } else {
      const std::uint64_t line = hot_sets[rng() % hot_sets.size()] + sets * (rng() % tags);
      addr = line * 128 + rng() % 128;
    }
    const bool write = rng() % 3 == 0;
    const bool allocate = rng() % 5 != 0;
    const SectoredCache::Outcome got = cache.access(addr, write, allocate);
    const SectoredCache::Outcome want = ref.access(addr, write, allocate);
    ASSERT_EQ(got.hit, want.hit) << "access " << i << " addr " << addr;
    ASSERT_EQ(got.writeback_sectors, want.writeback_sectors) << "access " << i;
    hits += got.hit ? 1 : 0;
    writebacks += got.writeback_sectors;
    if (i % 20000 == 0) {
      ASSERT_EQ(cache.flush(), ref.flush()) << "flush after " << i;
    }
    if (i == 30000) {
      cache.reset();
      ref.reset();
    }
  }
  // The stream exercised the interesting cases.
  EXPECT_GT(hits, 3000);
  EXPECT_GT(writebacks, 3000);
}

TEST(SectoredCache, MatchesReferenceLruOnA100L1) { expect_matches_reference(128 * 1024, 4); }

TEST(SectoredCache, MatchesReferenceLruOnA100L2) {
  expect_matches_reference(40 * 1024 * 1024, 16);
}

TEST(SectoredCache, MatchesReferenceLruOnEighthL2) {
  expect_matches_reference(5 * 1024 * 1024, 16);
}

TEST(SectoredCache, MatchesReferenceLruOnTiny) { expect_matches_reference(1024, 2); }

// -------------------------------------------------------------------- DRAM --

TEST(DramModel, RejectsNonPowerOfTwoGeometry) {
  MachineModel m = a100();
  m.dram_interleave_bytes = 384;
  expect_rejected([&] { (void)DramModel(m); }, "dram_interleave_bytes");
  m = a100();
  m.dram_row_bytes = 6000;
  expect_rejected([&] { (void)DramModel(m); }, "dram_row_bytes");
  m = a100();
  m.dram_channels = 24;
  expect_rejected([&] { (void)DramModel(m); }, "dram_channels");
  m = a100();
  m.dram_banks_per_channel = 0;
  expect_rejected([&] { (void)DramModel(m); }, "dram_banks_per_channel");
}

TEST(DramModel, StreamingHitsOpenRows) {
  MachineModel m = a100();
  DramModel d(m);
  // A long consecutive-sector stream: within each 256 B channel interleave
  // chunk, 7 of 8 sectors hit the open row.
  for (std::uint64_t a = 0; a < 1 << 20; a += 32) d.access(a);
  EXPECT_GT(d.burst_efficiency(), 0.85);
}

TEST(DramModel, ScatteredMissesRows) {
  MachineModel m = a100();
  DramModel d(m);
  // Jump by a prime number of rows every access: almost every access misses.
  std::uint64_t a = 0;
  for (int i = 0; i < 10000; ++i) {
    d.access(a);
    a += 8192 * 7 + 256;
  }
  EXPECT_LT(d.burst_efficiency(), 0.55);
}

TEST(DramModel, OpaqueWritebacksArePessimistic) {
  MachineModel m = a100();
  DramModel d(m);
  d.access_opaque(10);
  EXPECT_EQ(d.sectors(), 10u);
  EXPECT_EQ(d.row_hits(), 0u);
}

TEST(DramModel, CostUnitsCombineHitsAndMisses) {
  MachineModel m = a100();
  DramModel d(m);
  d.access(0);      // row miss
  d.access(32);     // row hit
  EXPECT_DOUBLE_EQ(d.cost_units(), kCalibration.dram_row_miss_penalty + 1.0);
  EXPECT_DOUBLE_EQ(d.burst_efficiency(), 2.0 / (kCalibration.dram_row_miss_penalty + 1.0));
}

}  // namespace
}  // namespace gpusim
