// solver.hpp — conjugate-gradient inversion of the even-odd preconditioned
// staggered operator: the workload Dslash performance actually buys
// (MILC's su3_rhmd_hisq spends most of its time here).
#pragma once

#include <functional>

#include "core/staggered_operator.hpp"

namespace milc {

struct CgOptions {
  double rel_tol = 1e-8;  ///< target ||r|| / ||b||
  int max_iterations = 5000;
  int log_every = 0;  ///< 0 = silent, n = print every n iterations
};

struct CgResult {
  bool converged = false;
  int iterations = 0;
  double relative_residual = 0.0;
  /// True residual ||A x - b|| / ||b|| recomputed at the end (guards against
  /// drift of the recursion residual).
  double true_relative_residual = 0.0;
};

/// One CG update from Ap = A p: alpha = rr / <p, Ap>, x += alpha p,
/// r -= alpha Ap, then p = r + (rr_new / rr) p and rr = ||r||^2.  Returns
/// false, leaving every argument untouched, when <p, Ap> is not positive
/// (A not HPD, or corrupted recursion state).  `Field` is any field type
/// with dot, norm2, axpy and xpay: ColorField, FloatColorField, WilsonField.
template <typename Field>
[[nodiscard]] bool cg_step(const Field& Ap, Field& x, Field& r, Field& p, double& rr) {
  const double pAp = dot(p, Ap).re;
  if (!(pAp > 0.0)) return false;  // not HPD or numerical breakdown
  const double alpha = rr / pAp;
  axpy(alpha, p, x);
  axpy(-alpha, Ap, r);
  const double rr_new = norm2(r);
  xpay(r, rr_new / rr, p);  // p = r + beta p
  rr = rr_new;
  return true;
}

/// Solve A x = b by CG for any Hermitian-positive-definite `apply`.
/// `x` is used as the initial guess and holds the solution on return.
CgResult cg_solve(const std::function<void(const ColorField&, ColorField&)>& apply,
                  const ColorField& b, ColorField& x, const LatticeGeom& geom,
                  const CgOptions& opts = {});

/// Convenience: solve (m^2 - D_eo D_oe) x = b on even sites.
CgResult cg_solve(const StaggeredOperator& op, const ColorField& b, ColorField& x,
                  const CgOptions& opts = {});

}  // namespace milc
