// Non-hypercubic lattices and wrap-around edge cases: the Dslash operator
// and every strategy must be exact on any even-extent box, including the
// L = 4 case where a +3 hop aliases a -1 hop.
#include <gtest/gtest.h>

#include "core/dslash_ref.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"

namespace milc {
namespace {

class AsymmetricLattice : public ::testing::TestWithParam<Coords> {};

TEST_P(AsymmetricLattice, ReferenceMatchesDirectEquation) {
  DslashProblem p(GetParam(), 101);
  ColorField via_view(p.geom(), p.target_parity());
  dslash_reference(p.view(), p.neighbors(), p.b(), via_view);
  GaugeConfiguration cfg(p.geom());
  cfg.fill_random(101);  // the problem's seed: the configuration it gathered from
  ColorField direct(p.geom(), p.target_parity());
  dslash_from_configuration(p.geom(), cfg, p.target_parity(), p.b(), direct);
  EXPECT_LT(max_abs_diff(via_view, direct), 1e-11);
}

TEST_P(AsymmetricLattice, StrategyKernelMatchesReference) {
  DslashProblem p(GetParam(), 102);
  DslashRunner runner;
  // 3LP-1 k-major at the smallest legal local size that divides the grid.
  int local = 0;
  for (int ls : {96, 192, 384}) {
    if (is_valid_local_size(Strategy::LP3_1, IndexOrder::kMajor, ls, p.sites())) {
      local = ls;
      break;
    }
  }
  ASSERT_NE(local, 0) << "no valid local size for this shape";
  runner.run_functional(p, Strategy::LP3_1, IndexOrder::kMajor, local);
  ColorField ref(p.geom(), p.target_parity());
  dslash_reference(p.view(), p.neighbors(), p.b(), ref);
  EXPECT_LT(max_abs_diff(p.c(), ref), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, AsymmetricLattice,
                         ::testing::Values(Coords{4, 6, 8, 10}, Coords{8, 4, 4, 8},
                                           Coords{6, 6, 4, 12}, Coords{4, 4, 4, 16}),
                         [](const auto& info) {
                           const Coords& c = info.param;
                           return std::to_string(c[0]) + "x" + std::to_string(c[1]) + "x" +
                                  std::to_string(c[2]) + "x" + std::to_string(c[3]);
                         });

TEST(WrapAliasing, ExtentFourThirdHopEqualsBackwardHop) {
  // On an extent-4 dimension, +3 is the same site as -1; the neighbour
  // table must agree and the operator must still match the direct form.
  LatticeGeom g(4);
  NeighborTable t(g, Parity::Even);
  for (std::int64_t s = 0; s < g.half_volume(); s += 3) {
    for (int k = 0; k < kNdim; ++k) {
      EXPECT_EQ(t.at(s, k, 1), t.at(s, k, 2));  // +3 aliases -1
      EXPECT_EQ(t.at(s, k, 3), t.at(s, k, 0));  // -3 aliases +1
    }
  }
}

TEST(WrapAliasing, ExtentSixIsAliasFree) {
  LatticeGeom g(6);
  NeighborTable t(g, Parity::Even);
  for (std::int64_t s = 0; s < g.half_volume(); s += 5) {
    for (int k = 0; k < kNdim; ++k) {
      EXPECT_NE(t.at(s, k, 1), t.at(s, k, 2));
      EXPECT_NE(t.at(s, k, 3), t.at(s, k, 0));
    }
  }
}

TEST(AsymmetricProblem, FlopCountUsesActualVolume) {
  DslashProblem p(Coords{4, 6, 8, 10}, 103);
  EXPECT_EQ(p.sites(), 4 * 6 * 8 * 10 / 2);
  EXPECT_DOUBLE_EQ(p.flops(), kFlopsPerSite * static_cast<double>(p.sites()));
}

TEST(AsymmetricProblem, OddTargetParityWorks) {
  DslashProblem p(Coords{6, 4, 6, 4}, 104, Parity::Odd);
  EXPECT_EQ(p.target_parity(), Parity::Odd);
  EXPECT_EQ(p.b().parity(), Parity::Even);
  ColorField ref(p.geom(), Parity::Odd);
  dslash_reference(p.view(), p.neighbors(), p.b(), ref);
  EXPECT_GT(norm2(ref), 0.0);
}

}  // namespace
}  // namespace milc
