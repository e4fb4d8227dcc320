// Wilson-fermion extension: gamma algebra, projector derivation, and the
// three Dslash implementations (full-gamma reference, projected host,
// device kernel).
#include <gtest/gtest.h>

#include "wilson/wilson.hpp"

namespace milc::wilson {
namespace {

dcomplex spin_entry(const SpinMatrix& m, int i, int j) {
  return m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
}

SpinMatrix spin_mul(const SpinMatrix& a, const SpinMatrix& b) {
  SpinMatrix r{};
  for (int i = 0; i < kSpins; ++i) {
    for (int j = 0; j < kSpins; ++j) {
      dcomplex acc{0.0, 0.0};
      for (int k = 0; k < kSpins; ++k) cmac(acc, spin_entry(a, i, k), spin_entry(b, k, j));
      r[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = acc;
    }
  }
  return r;
}

void expect_identity(const SpinMatrix& m, double scale = 1.0) {
  for (int i = 0; i < kSpins; ++i) {
    for (int j = 0; j < kSpins; ++j) {
      EXPECT_NEAR(spin_entry(m, i, j).re, i == j ? scale : 0.0, 1e-12);
      EXPECT_NEAR(spin_entry(m, i, j).im, 0.0, 1e-12);
    }
  }
}

TEST(Gamma, SquaresToIdentity) {
  for (int mu = 0; mu < 4; ++mu) expect_identity(spin_mul(gamma(mu), gamma(mu)));
}

TEST(Gamma, CliffordAlgebraAnticommutes) {
  for (int mu = 0; mu < 4; ++mu) {
    for (int nu = mu + 1; nu < 4; ++nu) {
      const SpinMatrix ab = spin_mul(gamma(mu), gamma(nu));
      const SpinMatrix ba = spin_mul(gamma(nu), gamma(mu));
      for (int i = 0; i < kSpins; ++i) {
        for (int j = 0; j < kSpins; ++j) {
          EXPECT_NEAR(spin_entry(ab, i, j).re + spin_entry(ba, i, j).re, 0.0, 1e-12);
          EXPECT_NEAR(spin_entry(ab, i, j).im + spin_entry(ba, i, j).im, 0.0, 1e-12);
        }
      }
    }
  }
}

TEST(Gamma, Gamma5SquaresToIdentityAndAnticommutes) {
  expect_identity(spin_mul(gamma5(), gamma5()));
  for (int mu = 0; mu < 4; ++mu) {
    const SpinMatrix ab = spin_mul(gamma5(), gamma(mu));
    const SpinMatrix ba = spin_mul(gamma(mu), gamma5());
    for (int i = 0; i < kSpins; ++i) {
      for (int j = 0; j < kSpins; ++j) {
        EXPECT_NEAR(spin_entry(ab, i, j).re + spin_entry(ba, i, j).re, 0.0, 1e-12);
      }
    }
  }
}

TEST(Gamma, ProjectorIsHalfOfRankTwoProjection) {
  // (1 -+ gamma)^2 = 2 (1 -+ gamma): idempotent up to the factor 2.
  for (int mu = 0; mu < 4; ++mu) {
    for (int sign : {+1, -1}) {
      const SpinMatrix m = one_minus_gamma(mu, static_cast<double>(sign));
      const SpinMatrix mm = spin_mul(m, m);
      for (int i = 0; i < kSpins; ++i) {
        for (int j = 0; j < kSpins; ++j) {
          EXPECT_NEAR(spin_entry(mm, i, j).re, 2.0 * spin_entry(m, i, j).re, 1e-12);
          EXPECT_NEAR(spin_entry(mm, i, j).im, 2.0 * spin_entry(m, i, j).im, 1e-12);
        }
      }
    }
  }
}

TEST(Gamma, DerivedProjectorTablesReproduceTheMatrix) {
  // Apply (1 -+ gamma) to spin unit vectors both ways and compare.
  for (int mu = 0; mu < 4; ++mu) {
    for (int sign : {+1, -1}) {
      const SpinMatrix m = one_minus_gamma(mu, static_cast<double>(sign));
      const Projector& p = projector(mu, sign);
      for (int e = 0; e < kSpins; ++e) {
        dcomplex psi[kSpins] = {};
        psi[e] = {1.0, 0.0};
        // Via tables: h_s = psi_s + phase*psi[perm]; lower = rphase*h[rperm].
        dcomplex out[kSpins];
        for (int s = 0; s < 2; ++s) {
          out[s] = psi[s] + cmul(p.phase[static_cast<std::size_t>(s)],
                                 psi[p.perm[static_cast<std::size_t>(s)]]);
        }
        for (int s = 0; s < 2; ++s) {
          out[2 + s] = cmul(p.rphase[static_cast<std::size_t>(s)],
                            out[p.rperm[static_cast<std::size_t>(s)]]);
        }
        for (int d = 0; d < kSpins; ++d) {
          EXPECT_NEAR(out[d].re, spin_entry(m, d, e).re, 1e-12) << mu << sign << d << e;
          EXPECT_NEAR(out[d].im, spin_entry(m, d, e).im, 1e-12) << mu << sign << d << e;
        }
      }
    }
  }
}

// ------------------------------------------------------------- operator ----

struct WilsonSetup {
  LatticeGeom geom{4};
  GaugeConfiguration cfg{geom};
  GaugeView view;
  NeighborTable nbr;
  WilsonField in{geom, Parity::Odd};

  WilsonSetup() : geom(4), cfg(geom) {
    cfg.fill_random(91);
    view = GaugeView(geom, cfg, Parity::Even);
    nbr = NeighborTable(geom, Parity::Even);
    in.fill_random(92);
  }
};

TEST(WilsonDslash, ProjectedMatchesFullGammaReference) {
  WilsonSetup w;
  WilsonField a(w.geom, Parity::Even), b(w.geom, Parity::Even);
  wilson_reference(w.view, w.nbr, w.in, a);
  wilson_projected(w.view, w.nbr, w.in, b);
  EXPECT_GT(norm2(a), 1.0);
  EXPECT_LT(max_abs_diff(a, b), 1e-11);
}

TEST(WilsonDslash, DeviceKernelMatchesReference) {
  WilsonSetup w;
  WilsonField ref(w.geom, Parity::Even), out(w.geom, Parity::Even);
  wilson_reference(w.view, w.nbr, w.in, ref);
  WilsonDslash d(w.view, w.nbr);
  d.apply(w.in, out, 128);
  EXPECT_LT(max_abs_diff(out, ref), 1e-11);
}

TEST(WilsonDslash, Linearity) {
  WilsonSetup w;
  WilsonField in2(w.geom, Parity::Odd);
  in2.fill_random(93);
  WilsonField sum(w.geom, Parity::Odd);
  for (std::int64_t i = 0; i < sum.size(); ++i) {
    sum[i] = w.in[i];
    sum[i] += in2[i];
  }
  WilsonField d1(w.geom, Parity::Even), d2(w.geom, Parity::Even), ds(w.geom, Parity::Even);
  wilson_reference(w.view, w.nbr, w.in, d1);
  wilson_reference(w.view, w.nbr, in2, d2);
  wilson_reference(w.view, w.nbr, sum, ds);
  for (std::int64_t i = 0; i < d1.size(); ++i) d1[i] += d2[i];
  EXPECT_LT(max_abs_diff(ds, d1), 1e-10);
}

TEST(WilsonDslash, Gamma5Hermiticity) {
  // gamma5 D_eo gamma5 = (D_oe)^dagger:  <v, g5 D_eo g5 w> = conj(<w, g5 D_oe g5 v>).
  LatticeGeom geom(4);
  GaugeConfiguration cfg(geom);
  cfg.fill_random(94);
  GaugeView ve(geom, cfg, Parity::Even), vo(geom, cfg, Parity::Odd);
  NeighborTable ne(geom, Parity::Even), no(geom, Parity::Odd);

  WilsonField v(geom, Parity::Even), w(geom, Parity::Odd);
  v.fill_random(95);
  w.fill_random(96);

  WilsonField Dw(geom, Parity::Even), Dv(geom, Parity::Odd);
  WilsonField w5 = w;
  apply_gamma5(w5);
  wilson_reference(ve, ne, w5, Dw);
  apply_gamma5(Dw);                 // g5 D_eo g5 w
  wilson_reference(vo, no, v, Dv);  // D_oe v

  // <v, g5 D_eo g5 w> = <v, (D_oe)^dag w> = conj(<w, D_oe v>).
  const dcomplex lhs = dot(v, Dw);
  const dcomplex rhs = dot(w, Dv);
  EXPECT_NEAR(lhs.re, rhs.re, 1e-8);
  EXPECT_NEAR(lhs.im, -rhs.im, 1e-8);
}

TEST(WilsonDslash, HigherArithmeticIntensityThanStaggered) {
  // The intro's point: Wilson moves more FLOPs per byte.
  const double wilson_bytes = 8 * 144.0 + 8 * 192.0 + 192.0;   // links + spinors + store
  const double stag_bytes = 16 * 144.0 + 16 * 48.0 + 48.0;
  const double wilson_ai = wilson_flops_per_site() / wilson_bytes;
  const double stag_ai = 1146.0 / stag_bytes;
  EXPECT_GT(wilson_ai, 1.5 * stag_ai);
}

TEST(WilsonDslash, ProfiledRunProducesStats) {
  WilsonSetup w;
  WilsonField out(w.geom, Parity::Even);
  WilsonDslash d(w.view, w.nbr);
  const auto st = d.profile(w.in, out, 128);
  EXPECT_GT(st.duration_us, 0.0);
  EXPECT_EQ(st.counters.divergent_branches, 0u);
  EXPECT_NEAR(static_cast<double>(st.counters.flops),
              wilson_flops_per_site() * static_cast<double>(w.geom.half_volume()), 1.0);
  // Whole-site spinor accumulators: register-limited like 1LP, only more so.
  EXPECT_STREQ(st.occupancy.limiter, "registers");
}

}  // namespace
}  // namespace milc::wilson
