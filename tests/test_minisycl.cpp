// minisycl execution-model tests: phase/barrier semantics, masking, atomics,
// tracing counters and divergence accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "minisycl/device.hpp"
#include "minisycl/executor.hpp"
#include "minisycl/queue.hpp"

namespace minisycl {
namespace {

/// phase 0: every item writes its local id to shared memory;
/// phase 1: every item reads its *neighbour's* slot — only correct if the
/// phase boundary provides real barrier semantics.
struct BarrierKernel {
  static constexpr int kPhases = 2;
  int* out;

  template <typename Lane>
  void operator()(Lane& lane, int phase) const {
    const int lid = lane.local_id();
    const int n = lane.local_range();
    if (phase == 0) {
      lane.template shared_store<int>(lid, lid * 10);
      return;
    }
    const int neighbor = (lid + n - 1) % n;
    const int v = lane.template shared_load<int>(neighbor);
    lane.store(&out[lane.global_id()], v);
  }
};

TEST(Executor, PhaseBoundaryIsABarrier) {
  constexpr int kLocal = 64;
  constexpr int kGlobal = 256;
  std::vector<int> out(kGlobal, -1);
  LaunchSpec spec{kGlobal, kLocal, kLocal * static_cast<int>(sizeof(int)), 2, {}};
  execute_functional(spec, BarrierKernel{out.data()});
  for (int g = 0; g < kGlobal / kLocal; ++g) {
    for (int t = 0; t < kLocal; ++t) {
      EXPECT_EQ(out[static_cast<std::size_t>(g * kLocal + t)],
                ((t + kLocal - 1) % kLocal) * 10);
    }
  }
}

struct AtomicSumKernel {
  static constexpr int kPhases = 1;
  double* sum;
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    lane.atomic_add(sum, static_cast<double>(lane.global_id()));
  }
};

TEST(Executor, AtomicAddAccumulatesEverything) {
  double sum = 0.0;
  LaunchSpec spec{512, 64, 0, 1, {}};
  execute_functional(spec, AtomicSumKernel{&sum});
  EXPECT_DOUBLE_EQ(sum, 511.0 * 512.0 / 2.0);
}

struct MaskedStoreKernel {
  static constexpr int kPhases = 1;
  int* out;
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    const bool head = lane.local_id() % 4 == 0;
    lane.branch(head ? 1 : 2);
    lane.set_masked(!head);
    lane.store(&out[lane.global_id()], 7);
    lane.set_masked(false);
    lane.converge();
  }
};

TEST(Executor, MaskSuppressesSideEffects) {
  std::vector<int> out(128, 0);
  LaunchSpec spec{128, 32, 0, 1, {}};
  execute_functional(spec, MaskedStoreKernel{out.data()});
  for (int i = 0; i < 128; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i % 4 == 0 ? 7 : 0);
}

// ------------------------------------------------------------- profiled ----

/// Each work-item loads one 8-byte value with a given lane stride and adds it
/// into a private sink (stored at the end).
struct StridedLoadKernel {
  static constexpr int kPhases = 1;
  const double* src;
  double* dst;
  std::int64_t stride;  ///< in elements

  template <typename Lane>
  void operator()(Lane& lane, int) const {
    const std::int64_t g = lane.global_id();
    const double v = lane.load(&src[g * stride]);
    lane.flops(2);
    lane.store(&dst[g], v * 2.0);
  }
};

TEST(ProfiledExecutor, CoalescedVsStridedTagRequests) {
  const gpusim::MachineModel m = gpusim::a100();
  constexpr int kGlobal = 4096;
  std::vector<double> src(kGlobal * 16, 1.0), dst(kGlobal, 0.0);

  LaunchSpec spec{kGlobal, 128, 0, 1, {}};
  const auto coalesced =
      execute_profiled(m, spec, StridedLoadKernel{src.data(), dst.data(), 1}, "coalesced");
  const auto strided =
      execute_profiled(m, spec, StridedLoadKernel{src.data(), dst.data(), 16}, "strided");

  // Unit stride: 32 lanes x 8 B = 8 sectors/warp.  Stride 16 (128 B): one
  // sector per lane = 32 sectors/warp.
  const auto warps = static_cast<std::uint64_t>(kGlobal / 32);
  EXPECT_EQ(coalesced.counters.warps, warps);
  EXPECT_LT(coalesced.counters.l1_tag_requests_global,
            strided.counters.l1_tag_requests_global);
  EXPECT_GT(strided.timing.total_s, 0.0);
  // Values must still be computed correctly.
  EXPECT_DOUBLE_EQ(dst[5], 2.0);
}

struct DivergentKernel {
  static constexpr int kPhases = 1;
  double* dst;
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    const int path = static_cast<int>(lane.global_id() % 4);
    lane.branch(path);
    lane.flops(4);
    lane.store(&dst[lane.global_id()], static_cast<double>(path));
    lane.converge();
  }
};

TEST(ProfiledExecutor, DivergenceCountedAndSlotsMultiplied) {
  const gpusim::MachineModel m = gpusim::a100();
  std::vector<double> dst(1024, 0.0);
  LaunchSpec spec{1024, 128, 0, 1, {}};
  const auto st = execute_profiled(m, spec, DivergentKernel{dst.data()}, "div");
  EXPECT_EQ(st.counters.branch_events, 1024u / 32u);
  EXPECT_EQ(st.counters.divergent_branches, 1024u / 32u);  // every warp diverges 4 ways
  // The store executes once per path: 4 store instructions per warp.
  EXPECT_EQ(st.counters.global_store_ops, 4u * (1024u / 32u));
  EXPECT_DOUBLE_EQ(dst[3], 3.0);
}

struct SharedConflictKernel {
  static constexpr int kPhases = 1;
  double* dst;
  int stride_words;  ///< lane l touches word l*stride
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    const int lid = lane.local_id();
    lane.template shared_store<int>(lid * stride_words, lid);
    const int v = lane.template shared_load<int>(lid * stride_words);
    lane.store(&dst[lane.global_id()], static_cast<double>(v));
  }
};

TEST(ProfiledExecutor, SharedBankConflictsMeasured) {
  const gpusim::MachineModel m = gpusim::a100();
  std::vector<double> dst(128, 0.0);
  LaunchSpec conflict_free{128, 128, 128 * 4 * 32, 1, {}};
  const auto free_st =
      execute_profiled(m, conflict_free, SharedConflictKernel{dst.data(), 1}, "free");
  const auto conflict_st =
      execute_profiled(m, conflict_free, SharedConflictKernel{dst.data(), 32}, "conflict");
  EXPECT_EQ(free_st.counters.shared_wavefronts, free_st.counters.shared_wavefronts_ideal);
  EXPECT_GT(conflict_st.counters.shared_wavefronts,
            conflict_st.counters.shared_wavefronts_ideal * 10);
  EXPECT_DOUBLE_EQ(dst[17], 17.0);
}

struct AtomicConflictKernel {
  static constexpr int kPhases = 1;
  double* sink;
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    lane.atomic_add(&sink[0], 1.0);  // all lanes collide on one address
  }
};

TEST(ProfiledExecutor, AtomicSerializationCounted) {
  const gpusim::MachineModel m = gpusim::a100();
  double sink = 0.0;
  LaunchSpec spec{256, 64, 0, 1, {}};
  const auto st = execute_profiled(m, spec, AtomicConflictKernel{&sink}, "atomic");
  EXPECT_DOUBLE_EQ(sink, 256.0);
  EXPECT_EQ(st.counters.atomic_lane_updates, 256u);
  EXPECT_EQ(st.counters.atomic_serial_replays, 256u - 8u);  // 31 replays per warp
  EXPECT_GT(st.timing.atomic_s, 0.0);
}

// The nd-range rules hold in every build, not only where assert() is
// compiled in: a partial group or a zero local size is an error, not a
// silently shortened launch or a division by zero.
TEST(Executor, FunctionalRejectsPartialGroup) {
  double sum = 0.0;
  LaunchSpec spec{100, 64, 0, 1, {}};
  EXPECT_THROW(execute_functional(spec, AtomicSumKernel{&sum}), std::invalid_argument);
  EXPECT_EQ(sum, 0.0);
  EXPECT_THROW((void)execute_profiled(gpusim::a100(), spec, AtomicSumKernel{&sum}, "partial"),
               std::invalid_argument);
}

TEST(Executor, FunctionalRejectsZeroLocalSize) {
  double sum = 0.0;
  for (const LaunchSpec& spec : {LaunchSpec{64, 0, 0, 1, {}}, LaunchSpec{64, -32, 0, 1, {}},
                                 LaunchSpec{64, 32, 0, 0, {}}, LaunchSpec{64, 32, -8, 1, {}},
                                 LaunchSpec{-64, 32, 0, 1, {}}}) {
    EXPECT_THROW(execute_functional(spec, AtomicSumKernel{&sum}), std::invalid_argument)
        << spec.global_size << "/" << spec.local_size << " phases " << spec.num_phases
        << " shared " << spec.shared_bytes;
  }
  EXPECT_EQ(sum, 0.0);
}

// SYCL 2020 allows an empty nd-range: it runs nothing and costs only the
// queue's launch overhead.
TEST(ProfiledExecutor, EmptyRangeIsFiniteAndFree) {
  double sum = 0.0;
  const LaunchSpec spec{0, 64, 0, 1, {}};
  const auto st = execute_profiled(gpusim::a100(), spec, AtomicSumKernel{&sum}, "empty");
  EXPECT_EQ(sum, 0.0);
  EXPECT_EQ(st.occupancy.waves, 0);
  EXPECT_EQ(st.occupancy.achieved, 0.0);
  EXPECT_EQ(st.duration_us, 0.0);
  EXPECT_EQ(st.timing.total_s, 0.0);
  EXPECT_EQ(st.gflops, 0.0);
  for (const double v : {st.occupancy.theoretical, st.timing.dram_s, st.timing.latency_s,
                         st.timing.l1_s, st.timing.shared_s, st.timing.issue_s,
                         st.timing.atomic_s, st.timing.barrier_s, st.sm_throughput_pct,
                         st.peak_pct, st.l1_throughput_pct, st.l1_miss_pct, st.l2_miss_pct,
                         st.avg_divergent_branches}) {
    EXPECT_TRUE(std::isfinite(v)) << v;
  }
  EXPECT_EQ(st.counters.warps, 0u);

  queue q(ExecMode::profiled, QueueOrder::in_order);
  (void)q.submit(spec, AtomicSumKernel{&sum});
  EXPECT_EQ(q.sim_time_us(), q.launch_overhead_us());
}

TEST(Queue, InOrderHasLowerLaunchOverhead) {
  queue in_q(ExecMode::functional, QueueOrder::in_order);
  queue out_q(ExecMode::functional, QueueOrder::out_of_order);
  EXPECT_LT(in_q.launch_overhead_us(), out_q.launch_overhead_us());
}

TEST(Queue, TimelineAccumulates) {
  queue q(ExecMode::functional, QueueOrder::in_order);
  double sum = 0.0;
  LaunchSpec spec{64, 32, 0, 1, {}};
  q.submit(spec, AtomicSumKernel{&sum});
  q.submit(spec, AtomicSumKernel{&sum});
  EXPECT_EQ(q.submissions(), 2);
  EXPECT_NEAR(q.sim_time_us(), 2 * q.launch_overhead_us(), 1e-12);
  q.reset_timeline();
  EXPECT_EQ(q.submissions(), 0);
}

TEST(Device, ReportsA100Shape) {
  device d;
  EXPECT_EQ(d.max_compute_units(), 108);
  EXPECT_EQ(d.max_work_group_size(), 1024);
  EXPECT_EQ(d.sub_group_size(), 32);
  EXPECT_EQ(d.global_mem_cache_size(), 40 * 1024 * 1024);
  EXPECT_NE(d.name().find("A100"), std::string::npos);
}

}  // namespace
}  // namespace minisycl
