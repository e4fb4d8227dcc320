// Single-precision fields, the float 3LP-1 kernel and the building blocks of
// mixed-precision solvers.
#include <gtest/gtest.h>

#include "core/dslash_ref.hpp"
#include "core/precision.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"

namespace milc {
namespace {

TEST(SComplex, PacksToTwoFloats) {
  static_assert(sizeof(scomplex) == 8);
  static_assert(sizeof(SU3Vector<scomplex>) == 24);
  SUCCEED();
}

TEST(SComplex, TraitsArithmetic) {
  using T = complex_traits<scomplex>;
  scomplex acc = T::make(0.0, 0.0);
  T::mac(acc, {2.0f, -1.0f}, {-0.5f, 3.0f});
  EXPECT_NEAR(T::real(acc), 2.0, 1e-6);
  EXPECT_NEAR(T::imag(acc), 6.5, 1e-6);
  scomplex acc2 = T::make(0.0, 0.0);
  T::conj_mac(acc2, {2.0f, -1.0f}, {-0.5f, 3.0f});
  EXPECT_NEAR(T::real(acc2), -4.0, 1e-6);
  EXPECT_NEAR(T::imag(acc2), 5.5, 1e-6);
}

TEST(FloatField, ConversionRoundTripWithinFloatEps) {
  DslashProblem p(4, 71);
  FloatColorField f(p.b());
  const ColorField back = f.to_double(p.geom());
  EXPECT_LT(max_abs_diff(p.b(), back), 1e-6);
}

TEST(FloatField, BlasMatchesDouble) {
  DslashProblem p(4, 72);
  ColorField x(p.geom(), Parity::Odd), y(p.geom(), Parity::Odd);
  x.fill_random(1);
  y.fill_random(2);
  FloatColorField fx(x), fy(y);

  EXPECT_NEAR(norm2(fx) / norm2(x), 1.0, 1e-5);
  EXPECT_NEAR(dot(fx, fy).re / dot(x, y).re, 1.0, 1e-4);

  axpy(0.5, x, y);
  axpy(0.5, fx, fy);
  EXPECT_NEAR(norm2(fy) / norm2(y), 1.0, 1e-5);
}

TEST(FloatDslashKernel, MatchesDoubleReferenceAtFloatAccuracy) {
  DslashProblem p(4, 73);
  FloatDslash fd(p.view(), p.neighbors());
  FloatColorField in(p.b()), out(p.geom(), p.target_parity());
  fd.apply(in, out);

  ColorField ref(p.geom(), p.target_parity());
  dslash_reference(p.view(), p.neighbors(), p.b(), ref);
  const ColorField got = out.to_double(p.geom());

  // Relative accuracy limited by float: values are O(10), so ~1e-5 abs.
  double max_rel = 0.0;
  const double scale = std::sqrt(norm2(ref) / static_cast<double>(ref.size()) / kColors);
  for (std::int64_t s = 0; s < ref.size(); ++s) {
    for (int i = 0; i < kColors; ++i) {
      max_rel = std::max(max_rel, cabs(got[s].c[i] - ref[s].c[i]) / scale);
    }
  }
  EXPECT_LT(max_rel, 5e-6);
}

TEST(FloatDslashKernel, ProfiledTrafficIsRoughlyHalf) {
  DslashProblem p(8, 74);
  FloatDslash fd(p.view(), p.neighbors());
  FloatColorField in(p.b()), out(p.geom(), p.target_parity());
  const auto fstats = fd.profile(in, out, 96);

  DslashRunner runner;
  RunRequest req{.strategy = Strategy::LP3_1,
                 .order = IndexOrder::kMajor,
                 .local_size = 96,
                 .variant = Variant::SYCL};
  const RunResult d = runner.run(p, req);

  // Unique data halves exactly; tag requests shrink less (the 4-byte
  // neighbour-index loads are precision-independent and 8 B strided loads
  // still straddle sectors).
  const double tag_ratio = static_cast<double>(fstats.counters.l1_tag_requests_global) /
                           static_cast<double>(d.stats.counters.l1_tag_requests_global);
  EXPECT_LT(tag_ratio, 0.85);
  EXPECT_GT(tag_ratio, 0.30);
  const double dram_ratio = static_cast<double>(fstats.counters.dram_sectors) /
                            static_cast<double>(d.stats.counters.dram_sectors);
  EXPECT_LT(dram_ratio, 0.65);
  EXPECT_LT(fstats.duration_us, d.stats.duration_us);
}

TEST(FloatDslashKernel, LinearInSource) {
  DslashProblem p(4, 75);
  FloatDslash fd(p.view(), p.neighbors());
  FloatColorField in(p.b()), out1(p.geom(), p.target_parity()),
      out2(p.geom(), p.target_parity());
  fd.apply(in, out1);
  // Scale input by 2: output must scale by 2 (up to float rounding).
  for (std::int64_t s = 0; s < in.size(); ++s) {
    for (int i = 0; i < kColors; ++i) {
      in[s].c[i].re *= 2.0f;
      in[s].c[i].im *= 2.0f;
    }
  }
  fd.apply(in, out2);
  double max_err = 0.0;
  for (std::int64_t s = 0; s < out1.size(); ++s) {
    for (int i = 0; i < kColors; ++i) {
      max_err = std::max(max_err,
                         std::abs(2.0 * out1[s].c[i].re - out2[s].c[i].re) +
                             std::abs(2.0 * out1[s].c[i].im - out2[s].c[i].im));
    }
  }
  EXPECT_LT(max_err, 1e-3);
}

}  // namespace
}  // namespace milc
