// ksan: injected-bug kernels must be flagged with the right category, and
// every shipped paper kernel must sanitize clean (zero errors; perf lints
// are advisory — Table I shows real bank conflicts and divergence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/compressed.hpp"
#include "core/dispatch.hpp"
#include "core/kernels_3lp.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"
#include "ksan/sanitizer.hpp"
#include "minisycl/queue.hpp"
#include "minisycl/usm.hpp"
#include "qudaref/staggered_test.hpp"
#include "wilson/wilson.hpp"

namespace milc {
namespace {

/// One L=8 problem shared by the whole suite (building the random gauge
/// configuration dominates; the sweeps reuse it like the benches do).
DslashProblem& shared_problem() {
  static DslashProblem p(8);
  return p;
}

// ------------------------------------------------------------------------
// injected-bug kernels
// ------------------------------------------------------------------------

/// 3LP-3 with the atomic update replaced by a plain read-modify-write: the
/// exact bug the atomics exist to prevent.  Four work-items (k = 0..3) now
/// race on C(i, s) within one phase.
struct Racy3LP3Kernel {
  static constexpr int kPhases = 2;
  DslashArgs<dcomplex> args;

  static minisycl::KernelTraits traits() {
    return {.name = "3LP-3 no-atomic", .regs_per_thread = 40, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int) { return 0; }

  template <typename Lane>
  void operator()(Lane& lane, int phase) const {
    using T = complex_traits<dcomplex>;
    const Idx3 id = decode3<Order3::kMajor>(lane.global_id());
    if (phase == 0) {
      lane.set_masked(id.k != 0);
      lane.store(&args.c_out[id.s].c[id.i], T::make(0.0, 0.0));
      lane.set_masked(false);
      return;
    }
    for (int l = 0; l < kNlinks; ++l) {
      const std::int32_t n = device::load_neighbor(lane, args.neighbors, id.s, id.k, l);
      const dcomplex v = device::row_dot(lane, args, l, id.s, id.k, id.i, &args.b[n]);
      const double sign = kStencilSigns[static_cast<std::size_t>(l)];
      // BUG: non-atomic read-modify-write of the shared accumulator.
      dcomplex c = lane.load(&args.c_out[id.s].c[id.i]);
      c += T::make(sign * T::real(v), sign * T::imag(v));
      lane.store(&args.c_out[id.s].c[id.i], c);
    }
  }
};

/// The shipped 3LP-1 with its barrier removed: both halves of the kernel run
/// in a single phase, so the k-reduction reads local-memory slots that other
/// work-items store in the same epoch.
struct BarrierSkipping3LP1Kernel {
  static constexpr int kPhases = 1;
  Dslash3LP1Kernel<Order3::kMajor> inner;

  static minisycl::KernelTraits traits() {
    return {.name = "3LP-1 no-barrier", .regs_per_thread = 40, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int local_size) {
    return Dslash3LP1Kernel<Order3::kMajor>::shared_bytes(local_size);
  }

  template <typename Lane>
  void operator()(Lane& lane, int /*phase*/) const {
    inner(lane, 0);  // store partials...
    inner(lane, 1);  // ...and reduce them with no barrier in between
  }
};

/// Reads a buffer that was freed before the launch.
struct UseAfterFreeKernel {
  static constexpr int kPhases = 1;
  const double* stale = nullptr;
  double* out = nullptr;

  static minisycl::KernelTraits traits() {
    return {.name = "uaf-read", .regs_per_thread = 16, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int) { return 0; }

  template <typename Lane>
  void operator()(Lane& lane, int /*phase*/) const {
    const std::int64_t i = lane.global_id();
    lane.store(&out[i], lane.load(&stale[i]));
  }
};

/// Reads a local-accessor slot no work-item ever stored.
struct UninitSharedReadKernel {
  static constexpr int kPhases = 1;
  double* out = nullptr;

  static minisycl::KernelTraits traits() {
    return {.name = "uninit-shared", .regs_per_thread = 16, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int local_size) {
    return local_size * static_cast<int>(sizeof(double));
  }

  template <typename Lane>
  void operator()(Lane& lane, int /*phase*/) const {
    lane.store(&out[lane.global_id()], lane.template shared_load<double>(lane.local_id()));
  }
};

/// Stores one slot past the launch's local_mem request.
struct SharedOverrunKernel {
  static constexpr int kPhases = 1;

  static minisycl::KernelTraits traits() {
    return {.name = "shared-overrun", .regs_per_thread = 16, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int local_size) {
    return local_size * static_cast<int>(sizeof(double));
  }

  template <typename Lane>
  void operator()(Lane& lane, int /*phase*/) const {
    lane.template shared_store<double>(lane.local_id() + 1, 1.0);  // last item overruns
  }
};

/// Stride-8-doubles local stores: every warp op lands on two banks.
struct BankConflictKernel {
  static constexpr int kPhases = 1;

  static minisycl::KernelTraits traits() {
    return {.name = "bank-conflict", .regs_per_thread = 16, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int local_size) {
    return local_size * 8 * static_cast<int>(sizeof(double));
  }

  template <typename Lane>
  void operator()(Lane& lane, int /*phase*/) const {
    lane.template shared_store<double>(lane.local_id() * 8, 1.0);
  }
};

/// Stride-32-doubles global loads: one 32 B sector per lane.
struct UncoalescedKernel {
  static constexpr int kPhases = 1;
  const double* in = nullptr;
  double* out = nullptr;

  static minisycl::KernelTraits traits() {
    return {.name = "uncoalesced", .regs_per_thread = 16, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int) { return 0; }

  template <typename Lane>
  void operator()(Lane& lane, int /*phase*/) const {
    const std::int64_t i = lane.global_id();
    lane.store(&out[i], lane.load(&in[i * 32]));
  }
};

/// Odd/even lanes take different arms.
struct DivergentKernel {
  static constexpr int kPhases = 1;
  double* out = nullptr;

  static minisycl::KernelTraits traits() {
    return {.name = "divergent", .regs_per_thread = 16, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int) { return 0; }

  template <typename Lane>
  void operator()(Lane& lane, int /*phase*/) const {
    const std::int64_t i = lane.global_id();
    const bool odd = (lane.local_id() % 2) != 0;
    lane.branch_test(odd);
    lane.store(&out[i], odd ? 1.0 : 2.0);
  }
};

minisycl::LaunchSpec spec_for(std::int64_t global, int local, int shared, int phases) {
  minisycl::LaunchSpec spec;
  spec.global_size = global;
  spec.local_size = local;
  spec.shared_bytes = shared;
  spec.num_phases = phases;
  return spec;
}

// ------------------------------------------------------------------------
// error detection
// ------------------------------------------------------------------------

TEST(KsanErrors, RemovedAtomicIsAGlobalRace) {
  DslashProblem p(4);
  Racy3LP3Kernel kernel{p.args()};
  ksan::SanitizeConfig cfg;
  cfg.regions = dslash_regions(kernel.args, kernel.args.sites);
  const auto rep = ksan::sanitize_launch(
      spec_for(p.sites() * 12, 96, 0, Racy3LP3Kernel::kPhases), kernel, cfg);
  EXPECT_GT(rep.count(ksan::Category::GlobalRace), 0u) << rep.summary();
  EXPECT_FALSE(rep.clean());
  ASSERT_FALSE(rep.records.empty());
  EXPECT_EQ(rep.records.front().category, ksan::Category::GlobalRace);
}

TEST(KsanErrors, AtomicVariantOfTheSameKernelIsClean) {
  // The control: the shipped 3LP-3 (same loop, atomic update) has no race.
  DslashProblem p(4);
  DslashRunner runner;
  const auto rep = runner.sanitize(p, Strategy::LP3_3, IndexOrder::kMajor, 96);
  EXPECT_EQ(rep.count(ksan::Category::GlobalRace), 0u) << rep.summary();
  EXPECT_TRUE(rep.clean());
}

TEST(KsanErrors, OffByOneNeighbourIsOutOfBounds) {
  DslashProblem p(4);
  DslashArgs<dcomplex> a = p.args();

  // Poison one gather index with `sites` (one past the last source site).
  // The source field is re-homed in a padded buffer so the out-of-range slot
  // cannot coincide with another declared region.
  std::vector<SU3Vector<dcomplex>> b_padded(static_cast<std::size_t>(a.sites) + 4);
  std::copy(a.b, a.b + a.sites, b_padded.begin());
  std::vector<std::int32_t> nbr(a.neighbors, a.neighbors + a.sites * kNeighbors);
  nbr[0] = static_cast<std::int32_t>(a.sites);
  a.b = b_padded.data();
  a.neighbors = nbr.data();

  Dslash3LP1Kernel<Order3::kMajor> kernel{a};
  ksan::SanitizeConfig cfg;
  cfg.regions = dslash_regions(a, a.sites);
  const auto rep = ksan::sanitize_launch(
      spec_for(a.sites * 12, 96, kernel.shared_bytes(96), kernel.kPhases), kernel, cfg);
  EXPECT_GT(rep.count(ksan::Category::GlobalOOB), 0u) << rep.summary();
  EXPECT_FALSE(rep.clean());
}

TEST(KsanErrors, FreedBufferReadIsUseAfterFree) {
  minisycl::queue q(minisycl::ExecMode::functional);
  double* out = minisycl::malloc_device<double>(64, q);
  // Freed last so no later allocation can recycle (and re-legitimise) it.
  double* stale = minisycl::malloc_device<double>(64, q);
  minisycl::free(stale, q);

  UseAfterFreeKernel kernel{.stale = stale, .out = out};
  const auto rep = ksan::sanitize_launch(spec_for(64, 32, 0, 1), kernel);
  EXPECT_EQ(rep.count(ksan::Category::GlobalUseAfterFree), 64u) << rep.summary();
  EXPECT_FALSE(rep.clean());
  ASSERT_FALSE(rep.records.empty());
  EXPECT_EQ(rep.records.front().category, ksan::Category::GlobalUseAfterFree);

  minisycl::free(out, q);
}

TEST(KsanErrors, SkippedBarrierIsAnIntraPhaseHazard) {
  DslashProblem p(4);
  BarrierSkipping3LP1Kernel kernel{.inner = {p.args()}};
  ksan::SanitizeConfig cfg;
  cfg.regions = dslash_regions(kernel.inner.args, kernel.inner.args.sites);
  const auto rep = ksan::sanitize_launch(
      spec_for(p.sites() * 12, 96, BarrierSkipping3LP1Kernel::shared_bytes(96), 1), kernel,
      cfg);
  EXPECT_GT(rep.count(ksan::Category::SharedHazard), 0u) << rep.summary();
  EXPECT_FALSE(rep.clean());
}

TEST(KsanErrors, ReadBeforeWriteOfLocalMemory) {
  minisycl::queue q(minisycl::ExecMode::functional);
  double* out = minisycl::malloc_device<double>(64, q);
  UninitSharedReadKernel kernel{.out = out};
  const auto rep = ksan::sanitize_launch(
      spec_for(64, 32, UninitSharedReadKernel::shared_bytes(32), 1), kernel);
  EXPECT_EQ(rep.count(ksan::Category::UninitSharedRead), 64u) << rep.summary();
  EXPECT_FALSE(rep.clean());
  minisycl::free(out, q);
}

TEST(KsanErrors, LocalMemoryOverrunIsSharedOOB) {
  SharedOverrunKernel kernel;
  const auto rep = ksan::sanitize_launch(
      spec_for(64, 32, SharedOverrunKernel::shared_bytes(32), 1), kernel);
  // The last work-item of each group stores one slot past the request.
  EXPECT_EQ(rep.count(ksan::Category::SharedOOB), 2u) << rep.summary();
  EXPECT_FALSE(rep.clean());
}

TEST(KsanErrors, MalformedLaunchIsRejected) {
  // The nd-range rules both executors enforce: 100 items do not split into
  // groups of 32, and a group of 0 items is no group.
  std::vector<double> out(100);
  const DivergentKernel kernel{out.data()};
  EXPECT_THROW((void)ksan::sanitize_launch(spec_for(100, 32, 0, 1), kernel),
               std::invalid_argument);
  EXPECT_THROW((void)ksan::sanitize_launch(spec_for(100, 0, 0, 1), kernel),
               std::invalid_argument);
}

// ------------------------------------------------------------------------
// perf lints (advisory: kernels stay `clean()`)
// ------------------------------------------------------------------------

TEST(KsanLints, StridedLocalStoresAreABankConflict) {
  BankConflictKernel kernel;
  const auto rep = ksan::sanitize_launch(
      spec_for(64, 32, BankConflictKernel::shared_bytes(32), 1), kernel);
  EXPECT_GT(rep.count(ksan::Category::SharedBankConflict), 0u) << rep.summary();
  EXPECT_TRUE(rep.clean());
  EXPECT_GT(rep.lint_count(), 0u);
}

TEST(KsanLints, StridedGlobalLoadsAreUncoalesced) {
  minisycl::queue q(minisycl::ExecMode::functional);
  double* in = minisycl::malloc_device<double>(64 * 32, q);
  double* out = minisycl::malloc_device<double>(64, q);
  UncoalescedKernel kernel{.in = in, .out = out};
  const auto rep = ksan::sanitize_launch(spec_for(64, 32, 0, 1), kernel);
  EXPECT_GT(rep.count(ksan::Category::UncoalescedAccess), 0u) << rep.summary();
  EXPECT_TRUE(rep.clean());
  minisycl::free(in, q);
  minisycl::free(out, q);
}

TEST(KsanLints, SplitWarpArmsAreADivergentBranch) {
  minisycl::queue q(minisycl::ExecMode::functional);
  double* out = minisycl::malloc_device<double>(64, q);
  DivergentKernel kernel{.out = out};
  const auto rep = ksan::sanitize_launch(spec_for(64, 32, 0, 1), kernel);
  EXPECT_GT(rep.count(ksan::Category::DivergentBranch), 0u) << rep.summary();
  EXPECT_TRUE(rep.clean());
  minisycl::free(out, q);
}

// ------------------------------------------------------------------------
// clean sweep over every shipped strategy x index order (L = 8)
// ------------------------------------------------------------------------

using Config = std::tuple<Strategy, IndexOrder>;

std::vector<Config> shipped_configs() {
  std::vector<Config> out;
  for (Strategy s : all_strategies()) {
    for (IndexOrder o : orders_of(s)) out.emplace_back(s, o);
  }
  return out;
}

class KsanCleanSweep : public ::testing::TestWithParam<Config> {};

TEST_P(KsanCleanSweep, ShippedKernelSanitizesClean) {
  const auto [s, o] = GetParam();
  DslashProblem& p = shared_problem();
  const int local_size = paper_local_sizes(s, o, p.sites()).front();
  DslashRunner runner;
  const auto rep = runner.sanitize(p, s, o, local_size);
  EXPECT_EQ(rep.error_count(), 0u) << rep.summary();
  EXPECT_TRUE(rep.clean());
  EXPECT_GT(rep.checked_global, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, KsanCleanSweep,
                         ::testing::ValuesIn(shipped_configs()),
                         [](const ::testing::TestParamInfo<Config>& param_info) {
                           std::string n = config_label(std::get<0>(param_info.param),
                                                        std::get<1>(param_info.param), 0);
                           n.resize(n.find(" /"));
                           for (char& c : n) {
                             if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
                           }
                           return n;
                         });

TEST(KsanClean, SyclCplxVariantSanitizesClean) {
  DslashProblem& p = shared_problem();
  DslashRunner runner;
  const auto rep = runner.sanitize(p, Strategy::LP3_1, IndexOrder::kMajor, 96,
                                   /*use_syclcplx=*/true);
  EXPECT_EQ(rep.error_count(), 0u) << rep.summary();
}

TEST(KsanClean, QudaReferenceSanitizesCleanForAllSchemes) {
  DslashProblem& p = shared_problem();
  qudaref::StaggeredDslashTest harness(p);
  for (Reconstruct scheme : {Reconstruct::k18, Reconstruct::k12, Reconstruct::k9}) {
    const auto rep = harness.sanitize(scheme);
    EXPECT_EQ(rep.error_count(), 0u) << rep.summary();
    EXPECT_GT(rep.checked_global, 0u);
  }
}

TEST(KsanClean, CompressedDslashSanitizesClean) {
  DslashProblem& p = shared_problem();
  CompressedDslash cd(p.view(), p.neighbors());
  const auto rep = cd.sanitize(p.b(), p.c(), 96);
  EXPECT_EQ(rep.error_count(), 0u) << rep.summary();
  EXPECT_GT(rep.checked_shared, 0u);
}

TEST(KsanClean, WilsonDslashSanitizesClean) {
  LatticeGeom geom(8);
  GaugeConfiguration cfg(geom);
  cfg.fill_random(91);
  const GaugeView view(geom, cfg, Parity::Even);
  const NeighborTable nbr(geom, Parity::Even);
  wilson::WilsonField in(geom, Parity::Odd);
  in.fill_random(92);
  wilson::WilsonField out(geom, Parity::Even);

  wilson::WilsonDslash d(view, nbr);
  const auto rep = d.sanitize(in, out, 128);
  EXPECT_EQ(rep.error_count(), 0u) << rep.summary();
  EXPECT_GT(rep.checked_global, 0u);
}

/// Sanitized launches perform the same valid side effects as a functional
/// run: the output of a sanitized 3LP-1 must match the reference.
TEST(KsanClean, SanitizedLaunchStillComputesTheRightAnswer) {
  DslashProblem p(4);
  DslashRunner runner;
  (void)runner.sanitize(p, Strategy::LP3_1, IndexOrder::kMajor, 96);
  ColorField sanitized = p.c();

  runner.run_functional(p, Strategy::LP3_1, IndexOrder::kMajor, 96);
  for (std::int64_t i = 0; i < p.sites(); ++i) {
    for (int c = 0; c < kColors; ++c) {
      EXPECT_DOUBLE_EQ(sanitized.data()[i].c[c].re, p.c().data()[i].c[c].re);
      EXPECT_DOUBLE_EQ(sanitized.data()[i].c[c].im, p.c().data()[i].c[c].im);
    }
  }
}

}  // namespace
}  // namespace milc
