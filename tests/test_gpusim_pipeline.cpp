// Direct unit tests of the simulated memory hierarchy — an L1FrontEnd
// feeding a PerfPipeline, as the profiled executor drives them: fill paths,
// write policies, atomic replay accounting, and end-of-kernel flush.
#include <gtest/gtest.h>

#include "gpusim/pipeline.hpp"

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

/// The whole hierarchy: an L1FrontEnd that counts into the pipeline's
/// counters, and the pipeline that replays its L2 requests.
struct Hierarchy {
  explicit Hierarchy(const MachineModel& m = a100())
      : pipe(m), front(m, pipe.counters()) {}

  /// Hand the L2 requests issued so far to L2 and DRAM, in order.
  void replay() {
    pipe.replay_l2(front.l2_requests());
    front.l2_requests().clear();
  }

  PerfPipeline pipe;
  L1FrontEnd front;
};

TEST(Pipeline, ColdLoadFillsAllLevels) {
  Hierarchy h;
  h.front.global_load(0, warp(0, 8, 8));  // 8 sectors
  h.replay();
  const auto& c = h.pipe.counters();
  EXPECT_EQ(c.global_load_ops, 1u);
  EXPECT_EQ(c.l1_tag_requests_global, 8u);
  EXPECT_EQ(c.l1_sector_misses, 8u);
  EXPECT_EQ(c.l2_sector_misses, 8u);
  EXPECT_EQ(c.dram_sectors, 8u);
}

TEST(Pipeline, RepeatLoadHitsL1) {
  Hierarchy h;
  h.front.global_load(0, warp(0, 8, 8));
  h.replay();
  h.front.global_load(0, warp(0, 8, 8));
  h.replay();
  const auto& c = h.pipe.counters();
  EXPECT_EQ(c.l1_sector_hits, 8u);
  EXPECT_EQ(c.dram_sectors, 8u);  // no new fills
}

TEST(Pipeline, DifferentSmHasOwnL1SharedL2) {
  Hierarchy h;
  h.front.global_load(0, warp(0, 8, 8));
  h.replay();
  h.front.global_load(1, warp(0, 8, 8));  // other SM: L1 cold, L2 warm
  h.replay();
  const auto& c = h.pipe.counters();
  EXPECT_EQ(c.l1_sector_misses, 16u);
  EXPECT_EQ(c.l2_sector_hits, 8u);
  EXPECT_EQ(c.dram_sectors, 8u);
}

TEST(Pipeline, StoresWriteThroughL1AndDirtyL2) {
  Hierarchy h;
  h.front.global_store(0, warp(0, 8, 8));
  h.replay();
  const auto& c = h.pipe.counters();
  EXPECT_EQ(c.global_store_ops, 1u);
  EXPECT_EQ(c.l1_tag_requests_global, 8u);
  // Write-allocate in L2 without a DRAM fetch.
  EXPECT_EQ(c.dram_sectors, 0u);
  // A following load of the same data hits L2 (not L1: no-allocate).
  h.front.global_load(0, warp(0, 8, 8));
  h.replay();
  EXPECT_EQ(h.pipe.counters().l2_sector_hits, 8u);
  EXPECT_EQ(h.pipe.counters().dram_sectors, 0u);
}

TEST(Pipeline, FinalizeFlushesDirtySectors) {
  Hierarchy h;
  h.front.global_store(0, warp(0, 8, 8));
  h.replay();
  h.pipe.finalize();
  EXPECT_EQ(h.pipe.counters().dram_sectors, 8u);  // write-backs
}

TEST(Pipeline, AtomicsBypassL1AndCountReplays) {
  Hierarchy h;
  // 32 lanes, 4 distinct addresses (8-way collisions each).
  std::vector<LaneAccess> lanes;
  for (int l = 0; l < 32; ++l) {
    lanes.push_back({static_cast<std::uint64_t>(l % 4) * 8, 8, static_cast<std::uint8_t>(l)});
  }
  h.front.global_atomic(lanes);
  h.replay();
  const auto& c = h.pipe.counters();
  EXPECT_EQ(c.atomic_ops, 1u);
  EXPECT_EQ(c.atomic_lane_updates, 32u);
  EXPECT_EQ(c.atomic_serial_replays, 32u - 4u);
  EXPECT_EQ(c.l1_sector_hits + c.l1_sector_misses, 0u);  // L1 untouched
  EXPECT_GT(c.l2_sector_requests, 0u);
}

TEST(Pipeline, SharedAccessCountsWavefronts) {
  Hierarchy h;
  h.front.shared_access(warp(0, 4, 4));    // conflict-free
  h.front.shared_access(warp(0, 128, 4));  // all one bank
  const auto& c = h.pipe.counters();
  EXPECT_EQ(c.shared_ops, 2u);
  EXPECT_EQ(c.shared_wavefronts, 1u + 32u);
  EXPECT_EQ(c.shared_wavefronts_ideal, 2u);
}

TEST(Pipeline, L2CapacityEviction) {
  // Stream far more than 40 MB through L2: early sectors must be gone.
  MachineModel m = a100();
  Hierarchy h(m);
  const std::uint64_t total = static_cast<std::uint64_t>(m.l2_bytes) * 2;
  for (std::uint64_t base = 0; base < total; base += 256) {
    h.front.global_load(0, warp(base, 8, 8));
    h.replay();
  }
  h.front.global_load(0, warp(0, 8, 8));  // original line: L1 long evicted, L2 too
  h.replay();
  const auto& c = h.pipe.counters();
  EXPECT_EQ(c.dram_sectors, total / 32 + 8);
}

TEST(Pipeline, ResetClearsEverything) {
  Hierarchy h;
  h.front.global_load(0, warp(0, 8, 8));
  h.replay();
  h.pipe.reset();
  h.front.reset();
  EXPECT_EQ(h.pipe.counters().l1_tag_requests_global, 0u);
  h.front.global_load(0, warp(0, 8, 8));
  h.replay();
  EXPECT_EQ(h.pipe.counters().l1_sector_misses, 8u);  // cold again
}

}  // namespace
}  // namespace gpusim
