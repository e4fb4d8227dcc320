// Lattice geometry, neighbour-table and field-layout tests.
#include <gtest/gtest.h>

#include <array>

#include "lattice/fields.hpp"
#include "lattice/geometry.hpp"
#include "lattice/soa.hpp"

namespace milc {
namespace {

TEST(Geometry, VolumeAndHalfVolume) {
  LatticeGeom g(8);
  EXPECT_EQ(g.volume(), 4096);
  EXPECT_EQ(g.half_volume(), 2048);
  LatticeGeom r(Coords{4, 6, 8, 10});
  EXPECT_EQ(r.volume(), 4 * 6 * 8 * 10);
}

TEST(Geometry, RejectsOddOrTinyExtents) {
  EXPECT_THROW(LatticeGeom(Coords{3, 4, 4, 4}), std::invalid_argument);
  EXPECT_THROW(LatticeGeom(Coords{4, 4, 0, 4}), std::invalid_argument);
}

// LatticeGeom allocates nothing, so extents at the edge of the index range
// are cheap to construct.
TEST(Geometry, RejectsVolumesBeyondTheIndexRange) {
  // 256^4 = 2^32 sites: 2^31 of one parity, one past INT32_MAX.
  EXPECT_THROW(LatticeGeom(256), std::invalid_argument);
  // 254^4: 2 081 157 128 sites of one parity fit.
  EXPECT_EQ(LatticeGeom(254).half_volume(), 2'081'157'128);
  // 100000^4 overflows int64 itself.
  EXPECT_THROW(LatticeGeom(100000), std::invalid_argument);
}

TEST(Geometry, IndexCoordsRoundTrip) {
  LatticeGeom g(Coords{4, 6, 8, 4});
  for (std::int64_t f = 0; f < g.volume(); ++f) {
    EXPECT_EQ(g.full_index(g.coords(f)), f);
  }
}

TEST(Geometry, XIsFastest) {
  LatticeGeom g(8);
  EXPECT_EQ(g.full_index(Coords{1, 0, 0, 0}), 1);
  EXPECT_EQ(g.full_index(Coords{0, 1, 0, 0}), 8);
  EXPECT_EQ(g.full_index(Coords{0, 0, 1, 0}), 64);
  EXPECT_EQ(g.full_index(Coords{0, 0, 0, 1}), 512);
}

TEST(Geometry, EoIndexIsBijectivePerParity) {
  LatticeGeom g(6);
  std::vector<int> seen_even(static_cast<std::size_t>(g.half_volume()), 0);
  std::vector<int> seen_odd(static_cast<std::size_t>(g.half_volume()), 0);
  for (std::int64_t f = 0; f < g.volume(); ++f) {
    auto& seen = g.parity(f) == Parity::Even ? seen_even : seen_odd;
    ++seen[static_cast<std::size_t>(g.eo_index(f))];
  }
  for (auto v : seen_even) EXPECT_EQ(v, 1);
  for (auto v : seen_odd) EXPECT_EQ(v, 1);
}

TEST(Geometry, FullIndexOfInvertsEoIndex) {
  LatticeGeom g(6);
  for (std::int64_t s = 0; s < g.half_volume(); ++s) {
    for (Parity p : {Parity::Even, Parity::Odd}) {
      const std::int64_t f = g.full_index_of(p, s);
      EXPECT_EQ(g.parity(f), p);
      EXPECT_EQ(g.eo_index(f), s);
    }
  }
}

TEST(Geometry, DisplacementWrapsPeriodically) {
  LatticeGeom g(6);
  const Coords c{5, 0, 3, 2};
  EXPECT_EQ(g.displace(c, 0, +1)[0], 0);
  EXPECT_EQ(g.displace(c, 1, -1)[1], 5);
  EXPECT_EQ(g.displace(c, 2, +3)[2], 0);
  EXPECT_EQ(g.displace(c, 3, -3)[3], 5);
  // Full-period displacement is the identity.
  for (int d = 0; d < kNdim; ++d) EXPECT_EQ(g.displace(c, d, 6), c);
}

TEST(Geometry, ForwardThenBackwardIsIdentity) {
  LatticeGeom g(8);
  for (std::int64_t f = 0; f < g.volume(); f += 37) {
    for (int d = 0; d < kNdim; ++d) {
      for (int dist : {1, 3}) {
        EXPECT_EQ(g.neighbor(g.neighbor(f, d, dist), d, -dist), f);
      }
    }
  }
}

TEST(Geometry, OddDisplacementFlipsParity) {
  LatticeGeom g(6);
  for (std::int64_t f = 0; f < g.volume(); f += 11) {
    for (int d = 0; d < kNdim; ++d) {
      EXPECT_NE(g.parity(g.neighbor(f, d, 1)), g.parity(f));
      EXPECT_NE(g.parity(g.neighbor(f, d, 3)), g.parity(f));
      EXPECT_NE(g.parity(g.neighbor(f, d, -3)), g.parity(f));
    }
  }
}

TEST(NeighborTable, MatchesGeometry) {
  LatticeGeom g(6);
  NeighborTable t(g, Parity::Even);
  EXPECT_EQ(t.size(), static_cast<std::size_t>(g.half_volume() * kNeighbors));
  for (std::int64_t s = 0; s < g.half_volume(); s += 7) {
    const std::int64_t f = g.full_index_of(Parity::Even, s);
    for (int k = 0; k < kNdim; ++k) {
      for (int l = 0; l < kNlinks; ++l) {
        const std::int64_t expect =
            g.eo_index(g.neighbor(f, k, kStencilOffsets[static_cast<std::size_t>(l)]));
        EXPECT_EQ(t.at(s, k, l), expect);
      }
    }
  }
}

TEST(NeighborTable, OddTargetUsesEvenSources) {
  LatticeGeom g(4);
  NeighborTable t(g, Parity::Odd);
  EXPECT_EQ(t.target_parity(), Parity::Odd);
  // All indices must be valid checkerboard indices.
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t.data()[i], 0);
    EXPECT_LT(t.data()[i], g.half_volume());
  }
}

// ------------------------------------------------------------------ fields --

TEST(ColorField, BlasOperations) {
  LatticeGeom g(4);
  ColorField x(g, Parity::Even), y(g, Parity::Even);
  x.fill_random(1);
  y.fill_random(2);

  const double nx = norm2(x);
  EXPECT_GT(nx, 0.0);

  // <x,x> is real and equals |x|^2.
  const dcomplex xx = dot(x, x);
  EXPECT_NEAR(xx.re, nx, 1e-10);
  EXPECT_NEAR(xx.im, 0.0, 1e-10);

  // <x,y> = conj(<y,x>)
  const dcomplex xy = dot(x, y), yx = dot(y, x);
  EXPECT_NEAR(xy.re, yx.re, 1e-10);
  EXPECT_NEAR(xy.im, -yx.im, 1e-10);

  // axpy: |x + a y|^2 = |x|^2 + 2a Re<x,y>... verify via direct recompute.
  ColorField z = x;
  axpy(0.5, y, z);
  double expect = 0.0;
  for (std::int64_t s = 0; s < x.size(); ++s) {
    const SU3Vector<dcomplex> v = x[s] + 0.5 * y[s];
    expect += norm2(v);
  }
  EXPECT_NEAR(norm2(z), expect, 1e-9);

  // xpay: z = x + a*z
  ColorField w = y;
  xpay(x, 2.0, w);
  for (std::int64_t s = 0; s < x.size(); s += 17) {
    const SU3Vector<dcomplex> v = x[s] + 2.0 * y[s];
    for (int i = 0; i < kColors; ++i) {
      EXPECT_NEAR(w[s].c[i].re, v.c[i].re, 1e-12);
    }
  }

  scale(0.0, w);
  EXPECT_EQ(norm2(w), 0.0);
  w.zero();
  EXPECT_EQ(norm2(w), 0.0);
}

TEST(GaugeView, GathersAdjointsCorrectly) {
  LatticeGeom g(4);
  GaugeConfiguration cfg(g);
  cfg.fill_random(3);
  GaugeView view(g, cfg, Parity::Even);
  for (std::int64_t s = 0; s < g.half_volume(); s += 5) {
    const std::int64_t f = g.full_index_of(Parity::Even, s);
    const Coords c = g.coords(f);
    for (int k = 0; k < kNdim; ++k) {
      EXPECT_LT(max_abs_diff(view.link(0, s, k), cfg.fat(f, k)), 1e-15);
      EXPECT_LT(max_abs_diff(view.link(1, s, k), cfg.lng(f, k)), 1e-15);
      const auto fb = adjoint(cfg.fat(g.full_index(g.displace(c, k, -1)), k));
      const auto lb = adjoint(cfg.lng(g.full_index(g.displace(c, k, -3)), k));
      EXPECT_LT(max_abs_diff(view.link(2, s, k), fb), 1e-15);
      EXPECT_LT(max_abs_diff(view.link(3, s, k), lb), 1e-15);
      // Element by element, and in the kernels' column-major
      // [site][k][col j][row i] store.
      const std::array<SU3Matrix<dcomplex>, kNlinks> want{cfg.fat(f, k), cfg.lng(f, k), fb, lb};
      for (int l = 0; l < kNlinks; ++l) {
        const SU3Matrix<dcomplex>& m = want[static_cast<std::size_t>(l)];
        for (int i = 0; i < kColors; ++i) {
          for (int j = 0; j < kColors; ++j) {
            EXPECT_EQ(view.at(l, s, k, i, j), m.e[i][j]);
            EXPECT_EQ(view.family(l)[((s * kNdim + k) * kColors + j) * kColors + i], m.e[i][j]);
          }
        }
      }
    }
  }
}

// --------------------------------------------------------------------- SoA --

class SoAGaugeRoundTrip : public ::testing::TestWithParam<Reconstruct> {};

TEST_P(SoAGaugeRoundTrip, UnpackMatchesView) {
  LatticeGeom g(4);
  GaugeConfiguration cfg(g);
  cfg.fill_random(4);
  GaugeView view(g, cfg, Parity::Even);
  SoAGauge soa(view, GetParam());
  EXPECT_EQ(soa.reals(), reals_per_link(GetParam()));
  for (std::int64_t s = 0; s < view.sites(); s += 13) {
    for (int l = 0; l < kNlinks; ++l) {
      for (int k = 0; k < kNdim; ++k) {
        EXPECT_LT(max_abs_diff(soa.unpack(l, s, k), view.link(l, s, k)), 1e-10);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, SoAGaugeRoundTrip,
                         ::testing::Values(Reconstruct::k18, Reconstruct::k12,
                                           Reconstruct::k9));

TEST(SoAGauge, ComponentMajorLayout) {
  LatticeGeom g(4);
  GaugeConfiguration cfg(g);
  cfg.fill_random(5);
  GaugeView view(g, cfg, Parity::Even);
  SoAGauge soa(view, Reconstruct::k18);
  EXPECT_EQ(soa.pairs(), 9);
  // A double2 plane holds consecutive sites adjacently.
  const dcomplex* p0 = soa.pair_plane(0, 0, 0);
  EXPECT_EQ(soa.at(0, 0, 0, 1), p0[1].re);
  EXPECT_EQ(soa.at(0, 0, 1, 1), p0[1].im);
  // Pair 0 of (l=0,k=0) at site s is element (0,0) of the link.
  for (std::int64_t s = 0; s < view.sites(); s += 7) {
    EXPECT_EQ(soa.at(0, 0, 0, s), view.link(0, s, 0).e[0][0].re);
    EXPECT_EQ(soa.at(0, 0, 1, s), view.link(0, s, 0).e[0][0].im);
  }
}

TEST(SoAGauge, OddRealCountsArePadded) {
  LatticeGeom g(4);
  GaugeConfiguration cfg(g);
  cfg.fill_random(15);
  GaugeView view(g, cfg, Parity::Even);
  SoAGauge soa(view, Reconstruct::k9);
  EXPECT_EQ(soa.reals(), 9);
  EXPECT_EQ(soa.pairs(), 5);  // 9 reals pad to 5 double2 planes
  // The pad slot is zero.
  EXPECT_EQ(soa.pair_plane(0, 0, 4)[3].im, 0.0);
}

TEST(SoAColor, RoundTrip) {
  LatticeGeom g(4);
  ColorField f(g, Parity::Odd);
  f.fill_random(6);
  SoAColor soa(f);
  const ColorField back = soa.to_aos(g, Parity::Odd);
  EXPECT_LT(max_abs_diff(f, back), 1e-15);
  // Mutation through set() is visible through get().
  SU3Vector<dcomplex> v;
  v.c[0] = {1.0, -2.0};
  soa.set(3, v);
  EXPECT_EQ(soa.get(3).c[0], (dcomplex{1.0, -2.0}));
}

}  // namespace
}  // namespace milc
