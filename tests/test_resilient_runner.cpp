// ResilientRunner: bounded retry, strategy fallback, ABFT recompute and the
// fault-free identity guarantee (EXPERIMENTS.md E1: with no plan installed the
// resilient path reproduces DslashRunner bit-for-bit).
#include <gtest/gtest.h>

#include <vector>

#include "core/dslash_ref.hpp"
#include "core/problem.hpp"
#include "faultsim/resilient_runner.hpp"

namespace milc {
namespace {

using faultsim::FaultKind;
using faultsim::FaultPlan;
using faultsim::Injector;
using faultsim::ScheduledFault;
using faultsim::ScopedFaultInjection;

RunRequest default_request() {
  return RunRequest{.strategy = Strategy::LP3_1,
                    .order = IndexOrder::kMajor,
                    .local_size = 96,
                    .variant = Variant::SYCL};
}

/// max |c - dslash_reference| over the problem's current output field.
double error_vs_reference(DslashProblem& p) {
  ColorField ref(p.geom(), p.target_parity());
  dslash_reference(p.view(), p.neighbors(), p.b(), ref);
  return max_abs_diff(p.c(), ref);
}

TEST(ResilientRunner, FaultFreeMatchesDslashRunnerBitForBit) {
  ASSERT_EQ(Injector::current(), nullptr);
  DslashProblem p(4, 121);
  const RunRequest req = default_request();

  DslashRunner plain;
  const RunResult base = plain.run(p, req);
  std::vector<SU3Vector<dcomplex>> base_c(p.c().data(), p.c().data() + p.sites());

  ResilientRunner resilient;
  const RecoveryReport rep = resilient.run(p, req);

  // The report shows an untouched first attempt...
  EXPECT_TRUE(rep.succeeded);
  EXPECT_TRUE(rep.abft_checked);
  EXPECT_EQ(rep.attempts, 1);
  EXPECT_TRUE(rep.steps.empty());
  EXPECT_DOUBLE_EQ(rep.recovery_us, 0.0);
  EXPECT_EQ(rep.final_strategy, req.strategy);

  // ...whose simulated result is the plain runner's, bit for bit (the
  // injector-off fast path must not perturb the timeline: EXPERIMENTS.md E1).
  EXPECT_EQ(rep.result.label, base.label);
  EXPECT_EQ(rep.result.stats.duration_us, base.stats.duration_us);
  EXPECT_EQ(rep.result.kernel_us, base.kernel_us);
  EXPECT_EQ(rep.result.per_iter_us, base.per_iter_us);
  EXPECT_EQ(rep.result.gflops, base.gflops);
  EXPECT_TRUE(rep.result.stats.fault.empty());

  // And the output field is byte-identical to the plain run's.
  for (std::int64_t s = 0; s < p.sites(); ++s) {
    for (int i = 0; i < kColors; ++i) {
      EXPECT_EQ(p.c()[s].c[i].re, base_c[static_cast<std::size_t>(s)].c[i].re);
      EXPECT_EQ(p.c()[s].c[i].im, base_c[static_cast<std::size_t>(s)].c[i].im);
    }
  }
}

TEST(ResilientRunner, TransientLaunchFailureIsRetriedWithExponentialBackoff) {
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::launch_fail, 0, 2, {}});
  ScopedFaultInjection fi(plan);

  DslashProblem p(4, 121);
  ResilientRunner resilient;
  const RecoveryReport rep = resilient.run(p, default_request());

  EXPECT_TRUE(rep.succeeded);
  EXPECT_EQ(rep.final_strategy, Strategy::LP3_1);
  EXPECT_EQ(rep.attempts, 3);
  ASSERT_EQ(rep.count(RecoveryAction::retry), 2);
  ASSERT_EQ(rep.steps.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.steps[0].backoff_us, 100.0);  // base * 2^0
  EXPECT_DOUBLE_EQ(rep.steps[1].backoff_us, 200.0);  // base * 2^1
  EXPECT_GT(rep.recovery_us, 300.0 - 1e-9);

  // Every injected fault is attributed to the step it provoked.
  EXPECT_EQ(rep.faults_observed(), fi.injector().injected_total());
  for (const RecoveryStep& s : rep.steps) {
    ASSERT_EQ(s.faults.size(), 1u);
    EXPECT_EQ(s.faults[0].kind, FaultKind::launch_fail);
  }
  EXPECT_LT(error_vs_reference(p), 1e-9);
}

TEST(ResilientRunner, PersistentStrategyFaultFallsDownTheLadder) {
  FaultPlan plan;
  // 3LP-1 is broken for good; the other rungs are untouched.
  plan.schedule.push_back(ScheduledFault{FaultKind::launch_fail, 0, 1000, "3LP-1"});
  ScopedFaultInjection fi(plan);

  DslashProblem p(4, 121);
  ResilientRunner resilient;
  const RecoveryReport rep = resilient.run(p, default_request());

  EXPECT_TRUE(rep.succeeded);
  EXPECT_EQ(rep.final_strategy, Strategy::LP2);
  EXPECT_EQ(rep.attempts, ResilientRunner::kMaxAttemptsPerStrategy + 1);
  EXPECT_EQ(rep.count(RecoveryAction::fallback), 1);
  const RecoveryStep& fb = rep.steps.back();
  EXPECT_EQ(fb.action, RecoveryAction::fallback);
  EXPECT_NE(fb.detail.find("2LP"), std::string::npos) << fb.detail;
  EXPECT_LT(error_vs_reference(p), 1e-9);
}

TEST(ResilientRunner, SilentBitFlipTriggersAbftRecompute) {
  // The flipped bit is chosen deterministically from the plan seed; low-order
  // mantissa bits perturb the contraction below the ABFT tolerance (and below
  // every field tolerance — see docs/RESILIENCE.md), so sweep a few seeds and
  // require that (a) detected flips are recomputed and (b) the final output
  // is always accepted against the serial reference.
  bool detected_at_least_once = false;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.schedule.push_back(ScheduledFault{FaultKind::bit_flip, 0, 1, {}});
    ScopedFaultInjection fi(plan);

    DslashProblem p(4, 121);
    ResilientRunner resilient;
    const RecoveryReport rep = resilient.run(p, default_request());

    ASSERT_TRUE(rep.succeeded) << "seed " << seed;
    EXPECT_EQ(fi.injector().injected(FaultKind::bit_flip), 1u) << "seed " << seed;
    if (rep.count(RecoveryAction::recompute) > 0) {
      detected_at_least_once = true;
      ASSERT_GE(rep.attempts, 2) << "seed " << seed;
      const RecoveryStep& s = rep.steps[0];
      EXPECT_EQ(s.action, RecoveryAction::recompute);
      EXPECT_DOUBLE_EQ(s.backoff_us, 0.0) << "recompute retries immediately";
      ASSERT_EQ(s.faults.size(), 1u);
      EXPECT_EQ(s.faults[0].kind, FaultKind::bit_flip);
    }
    EXPECT_LT(error_vs_reference(p), 1e-7) << "seed " << seed;
  }
  EXPECT_TRUE(detected_at_least_once)
      << "no seed in [0,16) produced a detectable flip — tolerance regressed?";
}

TEST(ResilientRunner, AllocationPressureDegradesAbftToHostCopy) {
  FaultPlan plan;
  plan.p_alloc_fail = 1.0;  // the device allocator never recovers
  plan.alloc_fail_mode = faultsim::AllocFailMode::return_null;
  ScopedFaultInjection fi(plan);

  DslashProblem p(4, 121);
  ResilientRunner resilient;
  const RecoveryReport rep = resilient.run(p, default_request());

  EXPECT_TRUE(rep.succeeded);
  EXPECT_EQ(rep.count(RecoveryAction::alloc_retry),
            ResilientRunner::kMaxAttemptsPerStrategy);
  EXPECT_EQ(rep.count(RecoveryAction::degrade), 1);
  EXPECT_TRUE(rep.abft_checked) << "verification must survive the OOM";
  EXPECT_LT(error_vs_reference(p), 1e-9);
}

TEST(ResilientRunner, SurvivesAMixedFaultStorm) {
  FaultPlan plan;
  plan.watchdog_timeout_us = 2000.0;
  plan.schedule.push_back(ScheduledFault{FaultKind::sticky_fault, 0, 1, {}});
  plan.schedule.push_back(ScheduledFault{FaultKind::hang, 1, 1, {}});
  ScopedFaultInjection fi(plan);

  DslashProblem p(4, 121);
  ResilientRunner resilient;
  const RecoveryReport rep = resilient.run(p, default_request());

  EXPECT_TRUE(rep.succeeded);
  EXPECT_EQ(rep.attempts, 3);
  EXPECT_EQ(rep.count(RecoveryAction::retry), 2);
  ASSERT_EQ(rep.steps.size(), 2u);
  EXPECT_EQ(rep.steps[0].faults[0].kind, FaultKind::sticky_fault);
  EXPECT_EQ(rep.steps[1].faults[0].kind, FaultKind::hang);
  // The hung attempt charges the watchdog to the recovery clock.
  EXPECT_GT(rep.recovery_us, plan.watchdog_timeout_us);
  EXPECT_LT(error_vs_reference(p), 1e-9);
  EXPECT_NE(rep.summary().find("SUCCEEDED"), std::string::npos);
}

TEST(ResilientRunner, ExhaustedLadderReportsAbort) {
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::launch_fail, 0, 1000000, {}});
  ScopedFaultInjection fi(plan);

  DslashProblem p(4, 121);
  ResilientRunner resilient;
  const RecoveryReport rep = resilient.run(p, default_request());

  EXPECT_FALSE(rep.succeeded);
  const int per = ResilientRunner::kMaxAttemptsPerStrategy;
  EXPECT_EQ(rep.attempts, 3 * per);  // requested + 2 remaining ladder rungs
  EXPECT_EQ(rep.count(RecoveryAction::fallback), 2);
  EXPECT_EQ(rep.count(RecoveryAction::abort), 1);
  EXPECT_EQ(rep.steps.back().action, RecoveryAction::abort);
  EXPECT_NE(rep.summary().find("FAILED"), std::string::npos);
}

}  // namespace
}  // namespace milc
