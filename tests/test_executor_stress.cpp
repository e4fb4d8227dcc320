// Executor stress tests: nested divergence, many phases, cross-warp local
// memory, masked atomics, full-size groups, multi-wave grids — and the
// invariant that profiled execution computes exactly the same values as
// functional execution.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "minisycl/executor.hpp"

namespace minisycl {
namespace {

/// Four-way divergence nested inside a two-way guard; every lane still
/// records positionally aligned events.
struct NestedDivergence {
  static constexpr int kPhases = 1;
  double* out;

  template <typename Lane>
  void operator()(Lane& lane, int) const {
    const int lid = lane.local_id();
    const int path = lid % 4;
    lane.branch(path);
    double v = static_cast<double>(path + 1);
    lane.flops(2);
    // Inner predicated region: only even paths double the value.
    lane.set_masked(path % 2 != 0);
    lane.store(&out[lane.global_id()], v * 2.0);
    lane.set_masked(false);
    lane.converge();
    // Odd paths write the plain value afterwards (still uniform events).
    lane.set_masked(path % 2 == 0);
    lane.store(&out[lane.global_id()], v);
    lane.set_masked(false);
  }
};

TEST(ExecutorStress, NestedDivergenceValuesAndCounters) {
  constexpr int kN = 256;
  std::vector<double> out(kN, -1.0);
  LaunchSpec spec{kN, 64, 0, 1, {}};
  const gpusim::MachineModel m = gpusim::a100();
  const auto st = execute_profiled(m, spec, NestedDivergence{out.data()}, "nested");
  for (int i = 0; i < kN; ++i) {
    const int path = i % 4;
    const double expect = path % 2 == 0 ? (path + 1) * 2.0 : path + 1.0;
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)], expect) << i;
  }
  EXPECT_EQ(st.counters.divergent_branches, static_cast<std::uint64_t>(kN / 32));
}

/// A 5-phase pipeline through local memory: each phase rotates the group's
/// values by one slot.  Only correct if every phase boundary is a barrier.
struct RotatePipeline {
  static constexpr int kPhases = 5;
  int* out;

  template <typename Lane>
  void operator()(Lane& lane, int phase) const {
    const int lid = lane.local_id();
    const int n = lane.local_range();
    if (phase == 0) {
      lane.template shared_store<int>(lid, lid);
      return;
    }
    // Read the left neighbour's value, re-store after a shadow slot to keep
    // read/write ordering clean: use double-buffering via offset n.
    const int src = (lid + n - 1) % n;
    const int v = lane.template shared_load<int>(((phase % 2) == 1 ? 0 : n) + src);
    lane.template shared_store<int>(((phase % 2) == 1 ? n : 0) + lid, v);
    if (phase == kPhases - 1) lane.store(&out[lane.global_id()], v);
  }
};

TEST(ExecutorStress, MultiPhaseRotation) {
  constexpr int kLocal = 96;
  constexpr int kN = 4 * kLocal;
  std::vector<int> out(kN, -1);
  LaunchSpec spec{kN, kLocal, 2 * kLocal * static_cast<int>(sizeof(int)), 5, {}};
  execute_functional(spec, RotatePipeline{out.data()});
  // After 4 rotations each item holds the value from 4 slots to the left.
  for (int g = 0; g < kN / kLocal; ++g) {
    for (int t = 0; t < kLocal; ++t) {
      EXPECT_EQ(out[static_cast<std::size_t>(g * kLocal + t)], (t + kLocal - 4) % kLocal);
    }
  }
}

struct MaskedAtomic {
  static constexpr int kPhases = 1;
  double* sum;

  template <typename Lane>
  void operator()(Lane& lane, int) const {
    lane.set_masked(lane.global_id() % 3 != 0);
    lane.atomic_add(sum, 1.0);
    lane.set_masked(false);
  }
};

TEST(ExecutorStress, MaskedAtomicsDontFire) {
  double sum = 0.0;
  LaunchSpec spec{96, 32, 0, 1, {}};
  execute_functional(spec, MaskedAtomic{&sum});
  EXPECT_DOUBLE_EQ(sum, 32.0);  // every third of 96
}

struct SaxpyKernel {
  static constexpr int kPhases = 1;
  const double* x;
  double* y;

  template <typename Lane>
  void operator()(Lane& lane, int) const {
    const auto g = lane.global_id();
    const double xv = lane.load(&x[g]);
    const double yv = lane.load(&y[g]);
    lane.flops(2);
    lane.store(&y[g], 2.0 * xv + yv);
  }
};

TEST(ExecutorStress, ProfiledEqualsFunctionalBitForBit) {
  constexpr int kN = 1024 * 13;  // several groups, partial wave
  std::vector<double> x(kN), y1(kN), y2(kN);
  for (int i = 0; i < kN; ++i) {
    x[static_cast<std::size_t>(i)] = 0.25 * i;
    y1[static_cast<std::size_t>(i)] = y2[static_cast<std::size_t>(i)] = -0.5 * i;
  }
  LaunchSpec spec{kN, 208, 0, 1, {}};  // local size not a power of two
  execute_functional(spec, SaxpyKernel{x.data(), y1.data()});
  const gpusim::MachineModel m = gpusim::a100();
  (void)execute_profiled(m, spec, SaxpyKernel{x.data(), y2.data()}, "saxpy");
  EXPECT_EQ(y1, y2);
}

TEST(ExecutorStress, FullSizeGroupAndManyWaves) {
  // 1024-wide groups, more groups than a wave holds.
  constexpr int kLocal = 1024;
  constexpr int kGroups = 300;
  std::vector<double> x(kLocal * kGroups, 1.0), y(kLocal * kGroups, 2.0);
  LaunchSpec spec{kLocal * kGroups, kLocal, 0, 1, {}};
  const gpusim::MachineModel m = gpusim::a100();
  const auto st = execute_profiled(m, spec, SaxpyKernel{x.data(), y.data()}, "waves");
  EXPECT_GT(st.occupancy.waves, 1);
  EXPECT_EQ(st.counters.work_items, static_cast<std::uint64_t>(kLocal) * kGroups);
  EXPECT_DOUBLE_EQ(y[123], 4.0);
}

TEST(ExecutorStress, CountersScaleLinearlyWithGrid) {
  std::vector<double> x(8192, 1.0), y(8192, 0.0);
  const gpusim::MachineModel m = gpusim::a100();
  LaunchSpec small{2048, 128, 0, 1, {}};
  LaunchSpec big{8192, 128, 0, 1, {}};
  const auto s1 = execute_profiled(m, small, SaxpyKernel{x.data(), y.data()}, "s");
  const auto s2 = execute_profiled(m, big, SaxpyKernel{x.data(), y.data()}, "b");
  EXPECT_EQ(4 * s1.counters.warps, s2.counters.warps);
  EXPECT_EQ(4 * s1.counters.global_store_ops, s2.counters.global_store_ops);
  EXPECT_EQ(4 * s1.counters.flops, s2.counters.flops);
}

}  // namespace
}  // namespace minisycl
