#include "core/solver.hpp"

#include <cmath>
#include <cstdio>

namespace milc {

bool cg_step(const ColorField& Ap, ColorField& x, ColorField& r, ColorField& p, double& rr) {
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

CgResult cg_solve(const std::function<void(const ColorField&, ColorField&)>& apply,
                  const ColorField& b, ColorField& x, const LatticeGeom& geom,
                  const CgOptions& opts) {
  CgResult res;
  const Parity p = b.parity();
  ColorField r(geom, p), Ap(geom, p);

  // r = b - A x
  apply(x, Ap);
  r = b;
  axpy(-1.0, Ap, r);
  ColorField pvec = r;

  const double b2 = norm2(b);
  if (b2 == 0.0) {
    x.zero();
    res.converged = true;
    return res;
  }
  double rr = norm2(r);
  const double target = opts.rel_tol * opts.rel_tol * b2;

  int it = 0;
  for (; it < opts.max_iterations && rr > target; ++it) {
    apply(pvec, Ap);
    if (!cg_step(Ap, x, r, pvec, rr)) break;
    if (opts.log_every > 0 && it % opts.log_every == 0) {
      std::printf("cg: iter %5d  rel res %.3e\n", it, std::sqrt(rr / b2));
    }
  }

  res.iterations = it;
  res.relative_residual = std::sqrt(rr / b2);
  res.converged = rr <= target;

  // True residual check.
  apply(x, Ap);
  ColorField tr = b;
  axpy(-1.0, Ap, tr);
  res.true_relative_residual = std::sqrt(norm2(tr) / b2);
  return res;
}

CgResult cg_solve(const StaggeredOperator& op, const ColorField& b, ColorField& x,
                  const CgOptions& opts) {
  return cg_solve(
      [&op](const ColorField& in, ColorField& out) { op.apply_normal(in, out); }, b, x,
      op.geom(), opts);
}

}  // namespace milc
