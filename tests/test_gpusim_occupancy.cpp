// Occupancy-calculator tests, anchored on the paper's Table I values.
#include <gtest/gtest.h>

#include "gpusim/occupancy.hpp"
#include "gpusim/roofline.hpp"
#include "gpusim/timing.hpp"

namespace gpusim {
namespace {

LaunchConfig cfg(std::int64_t global, int local, int shared, int regs) {
  LaunchConfig c;
  c.global_size = global;
  c.local_size = local;
  c.shared_bytes_per_group = shared;
  c.regs_per_thread = regs;
  return c;
}

TEST(Occupancy, ThreadLimited768) {
  // 3LP-1 at local 768 with 12.3 KB shared and 40 regs: 2 groups/SM = 1536
  // of 2048 threads -> 75% theoretical (paper Table I: ~74% achieved).
  const MachineModel m = a100();
  const auto occ = compute_occupancy(m, cfg(6291456, 768, 12288, 40));
  EXPECT_EQ(occ.groups_per_sm, 2);
  EXPECT_EQ(occ.warps_per_sm, 48);
  EXPECT_DOUBLE_EQ(occ.theoretical, 0.75);
  EXPECT_STREQ(occ.limiter, "threads");
  EXPECT_GT(occ.achieved, 0.70);
  EXPECT_LE(occ.achieved, 0.75);
}

TEST(Occupancy, RegisterLimited1LP) {
  // 1LP at local 256 with 64 registers: 64*32 regs/warp -> 32 warps by regs
  // -> 4 groups of 8 warps -> 50% theoretical (paper: 47.6% achieved).
  const MachineModel m = a100();
  const auto occ = compute_occupancy(m, cfg(524288, 256, 0, 64));
  EXPECT_EQ(occ.groups_per_sm, 4);
  EXPECT_EQ(occ.warps_per_sm, 32);
  EXPECT_DOUBLE_EQ(occ.theoretical, 0.5);
  EXPECT_STREQ(occ.limiter, "registers");
  EXPECT_NEAR(occ.achieved, 0.476, 0.03);
}

TEST(Occupancy, SharedMemoryLimited) {
  const MachineModel m = a100();
  // 96 KB per group: only one group fits the 164 KB carve-out.
  const auto occ = compute_occupancy(m, cfg(128 * 108, 128, 96 * 1024, 32));
  EXPECT_EQ(occ.groups_per_sm, 1);
  EXPECT_STREQ(occ.limiter, "shared-memory");
}

TEST(Occupancy, GroupCountLimit) {
  const MachineModel m = a100();
  // Tiny groups: residency capped by the 32-group hardware limit.
  const auto occ = compute_occupancy(m, cfg(32768, 32, 0, 16));
  EXPECT_EQ(occ.groups_per_sm, 32);
  EXPECT_DOUBLE_EQ(occ.theoretical, 0.5);
}

TEST(Occupancy, TailWaveReducesAchieved) {
  const MachineModel m = a100();
  // 120 groups with capacity 216/wave: a single partially-filled wave.
  const auto occ = compute_occupancy(m, cfg(120 * 768, 768, 0, 40));
  EXPECT_EQ(occ.waves, 1);
  EXPECT_LT(occ.achieved, 0.45);  // 120/216 fill of a 75% ceiling
}

TEST(Occupancy, RejectsIndivisibleGlobal) {
  const MachineModel m = a100();
  EXPECT_THROW(compute_occupancy(m, cfg(1000, 768, 0, 40)), std::invalid_argument);
}

TEST(Occupancy, RejectsOversizedGroupOrShared) {
  const MachineModel m = a100();
  EXPECT_THROW(compute_occupancy(m, cfg(4096, 2048, 0, 40)), std::invalid_argument);
  EXPECT_THROW(compute_occupancy(m, cfg(768, 768, 200 * 1024, 40)),
               std::invalid_argument);
}

// ------------------------------------------------------------------ timing --

TEST(Timing, LatencyHidingCurve) {
  EXPECT_DOUBLE_EQ(latency_hiding(1.0, 0.2), 1.0);
  EXPECT_EQ(latency_hiding(0.0, 0.2), 0.0);
  EXPECT_LT(latency_hiding(0.3, 0.2), latency_hiding(0.6, 0.2));
  EXPECT_GT(latency_hiding(0.5, 0.1), latency_hiding(0.5, 0.4));
}

TEST(Timing, DramBoundKernel) {
  const MachineModel m = a100();
  OccupancyInfo occ;
  occ.achieved = 0.75;
  occ.theoretical = 0.75;
  occ.warps_per_sm = 48;
  TraceCounters ctr;
  // 1 GB of perfectly streaming DRAM traffic and negligible everything else.
  ctr.dram_sectors = (1u << 30) / 32;
  const double cost_units = static_cast<double>(ctr.dram_sectors);
  const auto t = compute_timing(m, occ, ctr, cost_units, 1.0);
  EXPECT_STREQ(t.bound_by, "dram");
  // 1 GB at ~1.4 TB/s effective: in the 700-900 us range.
  EXPECT_GT(t.total_s, 500e-6);
  EXPECT_LT(t.total_s, 1200e-6);
}

TEST(Timing, LowOccupancySlowsDram) {
  const MachineModel m = a100();
  TraceCounters ctr;
  ctr.dram_sectors = 1 << 20;
  OccupancyInfo high;
  high.achieved = 0.75;
  high.warps_per_sm = 48;
  OccupancyInfo low = high;
  low.achieved = 0.25;
  const double cost = static_cast<double>(ctr.dram_sectors);
  const auto th = compute_timing(m, high, ctr, cost, 1.0);
  const auto tl = compute_timing(m, low, ctr, cost, 1.0);
  EXPECT_GT(tl.total_s, th.total_s * 1.2);
}

TEST(Timing, CodegenSlowdownScalesTotal) {
  const MachineModel m = a100();
  TraceCounters ctr;
  ctr.dram_sectors = 1 << 20;
  OccupancyInfo occ;
  occ.achieved = 0.75;
  occ.warps_per_sm = 48;
  const double cost = static_cast<double>(ctr.dram_sectors);
  const auto base = compute_timing(m, occ, ctr, cost, 1.0);
  const auto slow = compute_timing(m, occ, ctr, cost, 1.115);
  EXPECT_NEAR(slow.total_s / base.total_s, 1.115, 1e-9);
}

TEST(Timing, AtomicsAreAdditive) {
  const MachineModel m = a100();
  TraceCounters ctr;
  ctr.dram_sectors = 1 << 20;
  OccupancyInfo occ;
  occ.achieved = 0.75;
  occ.warps_per_sm = 48;
  const double cost = static_cast<double>(ctr.dram_sectors);
  const auto base = compute_timing(m, occ, ctr, cost, 1.0);
  ctr.atomic_lane_updates = 10'000'000;
  const auto with_atomics = compute_timing(m, occ, ctr, cost, 1.0);
  EXPECT_GT(with_atomics.total_s, base.total_s);
  EXPECT_GT(with_atomics.atomic_s, 0.0);
}

TEST(Timing, MakeStatsDerivedQuantities) {
  const MachineModel m = a100();
  LaunchConfig c = cfg(6291456, 768, 12288, 40);
  const auto occ = compute_occupancy(m, c);
  TraceCounters ctr;
  ctr.flops = 600'800'000;
  ctr.dram_sectors = 40'000'000;
  ctr.l1_sector_hits = 60'000'000;
  ctr.l1_sector_misses = 26'000'000;
  ctr.l1_tag_requests_global = 86'000'000;
  ctr.l2_sector_requests = 26'000'000;
  ctr.l2_sector_misses = 13'000'000;
  ctr.l2_sector_hits = 13'000'000;
  const auto st =
      make_stats(m, "3LP-1", c, occ, ctr, static_cast<double>(ctr.dram_sectors) * 1.1, 1.0);
  EXPECT_GT(st.duration_us, 0.0);
  EXPECT_NEAR(st.gflops, 600.8 / (st.duration_us * 1e-6) / 1e3, 1.0);
  EXPECT_NEAR(st.l1_miss_pct, 100.0 * 26.0 / 86.0, 0.1);
  EXPECT_NEAR(st.l2_miss_pct, 50.0, 0.1);
  EXPECT_NEAR(st.shared_kb_per_group, 12.3, 0.05);  // the paper's 12.3 KB
  EXPECT_EQ(st.name, "3LP-1");
}

// ---------------------------------------------------------------- roofline --

TEST(Roofline, ClassifiesRegimes) {
  const MachineModel m = a100();
  KernelStats st;
  st.duration_us = 1000.0;
  st.counters.flops = 600'800'000;
  st.counters.dram_sectors = 40'000'000;  // 1.28 GB -> intensity ~0.47
  const auto p = roofline_analyze(m, st);
  EXPECT_TRUE(p.memory_bound);
  EXPECT_NEAR(p.intensity, 600.8e6 / (40e6 * 32.0), 1e-6);
  EXPECT_NEAR(p.attainable_gflops, p.intensity * m.dram_peak_gbs, 1e-6);
  EXPECT_GT(p.roof_fraction, 0.0);
  EXPECT_LT(p.roof_fraction, 1.2);

  // A compute-heavy kernel: tiny traffic, many FLOPs.
  st.counters.dram_sectors = 1000;
  const auto c = roofline_analyze(m, st);
  EXPECT_FALSE(c.memory_bound);
  EXPECT_NEAR(c.attainable_gflops, m.empirical_peak_tflops * 1e3, 1e-6);
}

TEST(Roofline, DegenerateInputsAreSafe) {
  const MachineModel m = a100();
  KernelStats st;  // zeros
  const auto p = roofline_analyze(m, st);
  EXPECT_EQ(p.attainable_gflops, 0.0);
}

}  // namespace
}  // namespace gpusim
