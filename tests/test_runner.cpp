// Runner-level behaviour: validation, determinism, naming, the
// paper-convention GFLOP/s arithmetic, and the recovery fallback ladder.
#include <gtest/gtest.h>

#include <vector>

#include "core/problem.hpp"
#include "core/runner.hpp"

namespace milc {
namespace {

DslashProblem& prob() {
  static DslashProblem p(4, 121);
  return p;
}

TEST(Runner, RejectsInvalidLocalSizes) {
  DslashRunner runner;
  RunRequest bad{.strategy = Strategy::LP3_1,
                 .order = IndexOrder::kMajor,
                 .local_size = 100,  // not a multiple of 96
                 .variant = Variant::SYCL};
  EXPECT_THROW((void)runner.run(prob(), bad), std::invalid_argument);
  EXPECT_THROW(runner.run_functional(prob(), Strategy::LP3_1, IndexOrder::kMajor, 100),
               std::invalid_argument);
}

TEST(Runner, RejectsSyclCplxOffThreeLpOne) {
  DslashRunner runner;
  EXPECT_THROW(runner.run_functional(prob(), Strategy::LP2, IndexOrder::kMajor, 96, true),
               std::invalid_argument);
}

TEST(Runner, DeterministicAcrossRepeatedRuns) {
  DslashRunner runner;
  RunRequest req{.strategy = Strategy::LP3_1,
                 .order = IndexOrder::kMajor,
                 .local_size = 96,
                 .variant = Variant::SYCL};
  const RunResult a = runner.run(prob(), req);
  const RunResult b = runner.run(prob(), req);
  EXPECT_EQ(a.stats.duration_us, b.stats.duration_us);
  EXPECT_EQ(a.stats.counters.l1_tag_requests_global, b.stats.counters.l1_tag_requests_global);
  EXPECT_EQ(a.stats.counters.dram_sectors, b.stats.counters.dram_sectors);
  EXPECT_EQ(a.gflops, b.gflops);
}

TEST(Runner, LabelsIncludeVariant) {
  DslashRunner runner;
  RunRequest req{.strategy = Strategy::LP3_1,
                 .order = IndexOrder::kMajor,
                 .local_size = 96,
                 .variant = Variant::SYCLomaticOpt};
  const RunResult r = runner.run(prob(), req);
  EXPECT_NE(r.label.find("3LP-1"), std::string::npos);
  EXPECT_NE(r.label.find("SYCLomatic-opt"), std::string::npos);
}

TEST(Runner, PerIterationIncludesQueueOverhead) {
  DslashRunner runner;
  RunRequest ooo{.strategy = Strategy::LP3_1,
                 .order = IndexOrder::kMajor,
                 .local_size = 96,
                 .variant = Variant::SYCL};  // out-of-order
  RunRequest ino = ooo;
  ino.variant = Variant::SYCLomaticOpt;  // in-order, same kernel
  const RunResult a = runner.run(prob(), ooo);
  const RunResult b = runner.run(prob(), ino);
  EXPECT_EQ(a.kernel_us, b.kernel_us);  // identical kernel
  EXPECT_GT(a.per_iter_us, b.per_iter_us);  // ooo pays more per submit
  EXPECT_LT(a.gflops, b.gflops);
}

TEST(Runner, CodegenSlowdownAppliesToKernelTime) {
  DslashRunner runner;
  RunRequest opt_v{.strategy = Strategy::LP3_1,
                   .order = IndexOrder::kMajor,
                   .local_size = 96,
                   .variant = Variant::SYCLomaticOpt};
  RunRequest raw = opt_v;
  raw.variant = Variant::SYCLomatic;
  const RunResult o = runner.run(prob(), opt_v);
  const RunResult r = runner.run(prob(), raw);
  EXPECT_NEAR(r.kernel_us / o.kernel_us, variant_info(Variant::SYCLomatic).codegen_slowdown,
              1e-9);
}

TEST(Runner, GflopsUsesTheoreticalFlops) {
  DslashRunner runner;
  RunRequest req{.strategy = Strategy::LP1,
                 .order = IndexOrder::kMajor,
                 .local_size = 64,
                 .variant = Variant::SYCL};
  const RunResult r = runner.run(prob(), req);
  EXPECT_NEAR(r.gflops, prob().flops() / (r.per_iter_us * 1e-6) / 1e9, 1e-9);
}

TEST(Runner, FallbackRequestsWalkTheLadderOnce) {
  const auto expect_rung = [](const RunRequest& r, Strategy s, IndexOrder o, int ls,
                              Variant v, int iterations) {
    EXPECT_EQ(r.strategy, s);
    EXPECT_EQ(r.order, o);
    EXPECT_EQ(r.local_size, ls) << to_string(s);
    EXPECT_EQ(r.variant, v) << to_string(s);
    EXPECT_EQ(r.iterations, iterations) << to_string(s);
  };

  // The requested rung first, then each other rung adapted to a paper size.
  const RunRequest lp31{
      .strategy = Strategy::LP3_1, .order = IndexOrder::kMajor, .local_size = 768};
  const std::vector<RunRequest> a = fallback_requests(lp31, 10368);
  ASSERT_EQ(a.size(), 3u);
  expect_rung(a[0], Strategy::LP3_1, IndexOrder::kMajor, 768, Variant::SYCL, 100);
  expect_rung(a[1], Strategy::LP2, IndexOrder::kMajor, 96, Variant::SYCL, 100);
  expect_rung(a[2], Strategy::LP1, IndexOrder::kMajor, 64, Variant::SYCL, 100);

  // A request already on the ladder is not repeated further down.
  const RunRequest lp2{
      .strategy = Strategy::LP2, .order = IndexOrder::kMajor, .local_size = 768};
  const std::vector<RunRequest> b = fallback_requests(lp2, 10368);
  ASSERT_EQ(b.size(), 3u);
  expect_rung(b[0], Strategy::LP2, IndexOrder::kMajor, 768, Variant::SYCL, 100);
  expect_rung(b[1], Strategy::LP3_1, IndexOrder::kMajor, 768, Variant::SYCL, 100);
  expect_rung(b[2], Strategy::LP1, IndexOrder::kMajor, 64, Variant::SYCL, 100);

  // Off the ladder: every fallback rung runs plain SYCL with the caller's
  // iteration count.  No paper size fits 2LP or 1LP on 1296 sites, so those
  // keep 768 (a shard launch then coerces it through pick_local_size).
  const RunRequest lp42{.strategy = Strategy::LP4_2,
                        .order = IndexOrder::lMajor,
                        .local_size = 768,
                        .variant = Variant::CUDA,
                        .iterations = 7};
  const std::vector<RunRequest> c = fallback_requests(lp42, 1296);
  ASSERT_EQ(c.size(), 4u);
  expect_rung(c[0], Strategy::LP4_2, IndexOrder::lMajor, 768, Variant::CUDA, 7);
  expect_rung(c[1], Strategy::LP3_1, IndexOrder::kMajor, 96, Variant::SYCL, 7);
  expect_rung(c[2], Strategy::LP2, IndexOrder::kMajor, 768, Variant::SYCL, 7);
  expect_rung(c[3], Strategy::LP1, IndexOrder::kMajor, 768, Variant::SYCL, 7);
}

}  // namespace
}  // namespace milc
