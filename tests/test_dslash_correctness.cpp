// Every parallel strategy, index order and local size must reproduce the
// serial reference Dslash bit-for-bit up to floating-point reassociation
// (atomic variants change summation order).
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <tuple>

#include "core/dslash_ref.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"

namespace milc {
namespace {

constexpr double kTol = 1e-10;

/// Shared small problem (L=4) reused across the parameterised sweep.
DslashProblem& small_problem() {
  static DslashProblem p(4, /*seed=*/7);
  return p;
}

ColorField reference_output(DslashProblem& p) {
  ColorField ref(p.geom(), p.target_parity());
  dslash_reference(p.view(), p.neighbors(), p.b(), ref);
  return ref;
}

void poison(ColorField& c) {
  for (std::int64_t s = 0; s < c.size(); ++s) {
    for (int i = 0; i < kColors; ++i) c[s].c[i] = {1.2345e99, -9.8765e99};
  }
}

// A problem built from a configuration generated once is the problem the
// seed constructor builds: the solver and the service rest on this.
TEST(DslashProblem, SharedConfigurationMatchesSeedConstruction) {
  const Coords dims{4, 4, 6, 8};
  constexpr std::uint64_t kSeed = 19;
  const GaugeConfiguration gauge = GaugeConfiguration::random(LatticeGeom(dims), kSeed);
  for (const Parity target : {Parity::Even, Parity::Odd}) {
    const DslashProblem seeded(dims, kSeed, target);
    const DslashProblem shared(dims, gauge, kSeed, target);
    ASSERT_EQ(shared.sites(), seeded.sites());
    const std::size_t family_bytes =
        static_cast<std::size_t>(seeded.sites()) * kNdim * kColors * kColors * sizeof(dcomplex);
    for (int l = 0; l < 4; ++l) {
      EXPECT_EQ(std::memcmp(shared.view().family(l), seeded.view().family(l), family_bytes), 0)
          << "family " << l;
    }
    ASSERT_EQ(shared.neighbors().size(), seeded.neighbors().size());
    EXPECT_EQ(std::memcmp(shared.neighbors().data(), seeded.neighbors().data(),
                          seeded.neighbors().size() * sizeof(std::int32_t)),
              0);
    ASSERT_EQ(shared.b().bytes(), seeded.b().bytes());
    EXPECT_EQ(std::memcmp(shared.b().data(), seeded.b().data(), seeded.b().bytes()), 0);
  }
}

TEST(DslashProblem, RejectsAConfigurationOfAnotherVolume) {
  const GaugeConfiguration gauge = GaugeConfiguration::random(LatticeGeom(4), 3);
  EXPECT_THROW(DslashProblem(Coords{4, 4, 4, 6}, gauge), std::invalid_argument);
  EXPECT_THROW(DslashProblem(Coords{4, 4, 4, 4}, GaugeConfiguration{}), std::invalid_argument);
}

TEST(DslashReference, GatheredViewMatchesDirectEquationOne) {
  DslashProblem& p = small_problem();
  ColorField via_view = reference_output(p);
  GaugeConfiguration cfg(p.geom());
  cfg.fill_random(7);  // the problem's seed: the configuration it gathered from
  ColorField direct(p.geom(), p.target_parity());
  dslash_from_configuration(p.geom(), cfg, p.target_parity(), p.b(), direct);
  EXPECT_LT(max_abs_diff(via_view, direct), 1e-12);
}

TEST(DslashReference, OutputIsNonTrivial) {
  DslashProblem& p = small_problem();
  ColorField ref = reference_output(p);
  EXPECT_GT(norm2(ref), 1.0);
}

struct Config {
  Strategy strategy;
  IndexOrder order;
  int local_size;
  bool syclcplx;
};

std::ostream& operator<<(std::ostream& os, const Config& c) {
  return os << config_label(c.strategy, c.order, c.local_size)
            << (c.syclcplx ? " syclcplx" : "");
}

class StrategyCorrectness : public ::testing::TestWithParam<Config> {};

TEST_P(StrategyCorrectness, MatchesReference) {
  const Config cfg = GetParam();
  DslashProblem& p = small_problem();
  ASSERT_TRUE(is_valid_local_size(cfg.strategy, cfg.order, cfg.local_size, p.sites()));

  poison(p.c());
  DslashRunner runner;
  runner.run_functional(p, cfg.strategy, cfg.order, cfg.local_size, cfg.syclcplx);

  const ColorField ref = reference_output(p);
  EXPECT_LT(max_abs_diff(p.c(), ref), kTol) << "strategy output diverged from reference";
}

std::vector<Config> all_configs() {
  std::vector<Config> out;
  for (Strategy s : all_strategies()) {
    for (IndexOrder o : orders_of(s)) {
      for (int ls : paper_local_sizes(s, o, small_problem().sites())) {
        out.push_back({s, o, ls, false});
      }
    }
  }
  // SyclCPLX variant of 3LP-1, both orders (paper §IV-C item 1).
  for (IndexOrder o : orders_of(Strategy::LP3_1)) {
    out.push_back({Strategy::LP3_1, o, 96, true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyCorrectness, ::testing::ValuesIn(all_configs()),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           const Config& c = info.param;
                           std::string n = to_string(c.strategy);
                           n += '_';
                           n += to_string(c.order);
                           n += '_';
                           n += std::to_string(c.local_size);
                           if (c.syclcplx) n += "_cplx";
                           for (char& ch : n) {
                             if (ch == '-') ch = 'm';
                           }
                           return n;
                         });

/// Profiled execution must produce the same field values as functional
/// execution (the tracing lane performs the identical arithmetic).
TEST(ProfiledExecution, SameValuesAsFunctional) {
  DslashProblem& p = small_problem();
  DslashRunner runner;

  poison(p.c());
  runner.run_functional(p, Strategy::LP3_1, IndexOrder::kMajor, 96);
  ColorField functional = p.c();

  poison(p.c());
  RunRequest req{.strategy = Strategy::LP3_1,
                 .order = IndexOrder::kMajor,
                 .local_size = 96,
                 .variant = Variant::SYCL};
  (void)runner.run(p, req);
  EXPECT_LT(max_abs_diff(p.c(), functional), 1e-15);
}

/// A bigger lattice (L=8) spot check on the flagship strategy, to exercise
/// multi-wave scheduling and wrap-around-free third-neighbour hops.
TEST(StrategyCorrectnessLarge, L8_3LP1_768) {
  DslashProblem p(8, /*seed=*/11);
  poison(p.c());
  DslashRunner runner;
  runner.run_functional(p, Strategy::LP3_1, IndexOrder::kMajor, 768);
  ColorField ref(p.geom(), p.target_parity());
  dslash_reference(p.view(), p.neighbors(), p.b(), ref);
  EXPECT_LT(max_abs_diff(p.c(), ref), kTol);
}

TEST(StrategyCorrectnessLarge, L8_4LP2_96_OddTarget) {
  DslashProblem p(8, /*seed=*/13, Parity::Odd);
  poison(p.c());
  DslashRunner runner;
  runner.run_functional(p, Strategy::LP4_2, IndexOrder::iMajor, 96);
  ColorField ref(p.geom(), p.target_parity());
  dslash_reference(p.view(), p.neighbors(), p.b(), ref);
  EXPECT_LT(max_abs_diff(p.c(), ref), kTol);
}

}  // namespace
}  // namespace milc
