#include "wilson/wilson_solver.hpp"

#include <cmath>

#include "core/solver.hpp"

namespace milc::wilson {

WilsonOperator::WilsonOperator(const LatticeGeom& geom, const GaugeConfiguration& cfg,
                               double mass)
    : geom_(&geom),
      mass_(mass),
      view_e_(geom, cfg, Parity::Even),
      view_o_(geom, cfg, Parity::Odd),
      nbr_e_(geom, Parity::Even),
      nbr_o_(geom, Parity::Odd),
      deo_(view_e_, nbr_e_),
      doe_(view_o_, nbr_o_),
      tmp_o_(geom, Parity::Odd),
      tmp_e_(geom, Parity::Even) {}

void WilsonOperator::dslash_eo(const WilsonField& in, WilsonField& out) const {
  deo_.apply(in, out);
}
void WilsonOperator::dslash_oe(const WilsonField& in, WilsonField& out) const {
  doe_.apply(in, out);
}

void WilsonOperator::apply_schur(const WilsonField& in, WilsonField& out) const {
  // out = (m+4) in - 1/(4(m+4)) D_eo D_oe in
  dslash_oe(in, tmp_o_);
  dslash_eo(tmp_o_, out);
  scale(-1.0 / (4.0 * diag()), out);
  axpy(diag(), in, out);
}

void WilsonOperator::apply_schur_dagger(const WilsonField& in, WilsonField& out) const {
  // S^dagger = g5 S g5.
  tmp_e_ = in;
  apply_gamma5(tmp_e_);
  apply_schur(tmp_e_, out);
  apply_gamma5(out);
}

void axpy(double alpha, const WilsonField& x, WilsonField& y) {
  for (std::int64_t i = 0; i < x.size(); ++i) {
    for (int d = 0; d < kSpins; ++d) y[i].s[d] += alpha * x[i].s[d];
  }
}

void xpay(const WilsonField& x, double alpha, WilsonField& y) {
  for (std::int64_t i = 0; i < x.size(); ++i) {
    for (int d = 0; d < kSpins; ++d) y[i].s[d] = x[i].s[d] + alpha * y[i].s[d];
  }
}

void scale(double alpha, WilsonField& y) {
  for (std::int64_t i = 0; i < y.size(); ++i) {
    for (int d = 0; d < kSpins; ++d) y[i].s[d] = alpha * y[i].s[d];
  }
}

WilsonCgResult solve_schur_cg(const WilsonOperator& op, const WilsonField& b, WilsonField& x,
                              double rel_tol, int max_iterations) {
  WilsonCgResult res;
  const LatticeGeom& g = op.geom();

  // Normal equations: N x = S^dag S x = S^dag b.
  WilsonField rhs(g, Parity::Even), r(g, Parity::Even), p(g, Parity::Even);
  WilsonField t(g, Parity::Even), Np(g, Parity::Even);
  op.apply_schur_dagger(b, rhs);

  auto apply_N = [&](const WilsonField& in, WilsonField& out) {
    op.apply_schur(in, t);
    op.apply_schur_dagger(t, out);
  };

  apply_N(x, Np);
  r = rhs;
  axpy(-1.0, Np, r);
  p = r;

  const double rhs2 = norm2(rhs);
  if (rhs2 == 0.0) {
    x.zero();
    res.converged = true;
    return res;
  }
  double rr = norm2(r);
  const double target = rel_tol * rel_tol * rhs2;

  int it = 0;
  for (; it < max_iterations && rr > target; ++it) {
    apply_N(p, Np);
    if (!cg_step(Np, x, r, p, rr)) break;
  }
  res.iterations = it;
  res.relative_residual = std::sqrt(rr / rhs2);
  res.converged = rr <= target;

  // True residual of the original system S x = b.
  WilsonField Sx(g, Parity::Even);
  op.apply_schur(x, Sx);
  axpy(-1.0, b, Sx);
  res.true_relative_residual = std::sqrt(norm2(Sx) / norm2(b));
  return res;
}

}  // namespace milc::wilson
