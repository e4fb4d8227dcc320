// bench_mixed_solver — extension X1b: simulated time-to-solution of the
// even/odd CG inverter in pure double precision versus mixed precision
// (float inner solves + double reliable updates).  Combines *real* iteration
// counts from the actual solvers with *simulated* per-kernel durations from
// the device model — the product QUDA's mixed-precision solvers optimise.
#include "bench_common.hpp"
#include "core/precision.hpp"
#include "core/solver.hpp"

using namespace milc;
using namespace milc::bench;

namespace {

/// Inner float CG on the normal operator; returns iterations used.
int float_cg(const LatticeGeom& geom, const FloatDslash& feo, const FloatDslash& foe,
             double m2, const FloatColorField& rhs, FloatColorField& x, double rel_tol,
             int max_iter) {
  FloatColorField r = rhs, p = rhs, Ap(geom, Parity::Even), t(geom, Parity::Odd);
  x.zero();
  double rr = norm2(r);
  const double target = rel_tol * rel_tol * norm2(rhs);
  int it = 0;
  for (; it < max_iter && rr > target; ++it) {
    foe.apply(p, t);
    feo.apply(t, Ap);
    for (std::int64_t s = 0; s < Ap.size(); ++s) {
      for (int c = 0; c < kColors; ++c) {
        Ap[s].c[c].re = static_cast<float>(m2) * p[s].c[c].re - Ap[s].c[c].re;
        Ap[s].c[c].im = static_cast<float>(m2) * p[s].c[c].im - Ap[s].c[c].im;
      }
    }
    if (!cg_step(Ap, x, r, p, rr)) break;
  }
  return it;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_options(argc, argv);
  if (opt.L > 12) opt.L = 8;  // solver iterations dominate; small L suffices
  const double mass = 0.1, tol = 1e-10;
  print_header("Mixed-precision solver: simulated time-to-solution (X1b)", opt, 0);

  LatticeGeom geom(opt.L);
  GaugeConfiguration cfg(geom);
  cfg.fill_random(opt.seed);
  StaggeredOperator op(geom, cfg, mass);

  ColorField b(geom, Parity::Even), x(geom, Parity::Even);
  b.fill_random(opt.seed + 1);

  // -- per-application simulated kernel costs (both parities ~ equal) --------
  DslashProblem probe(opt.L, opt.seed);
  DslashRunner runner;
  RunRequest req{.strategy = Strategy::LP3_1, .order = IndexOrder::kMajor, .local_size = 96,
                 .variant = Variant::SYCL};
  const double dslash_double_us = runner.run(probe, req).kernel_us;
  FloatDslash fprobe(probe.view(), probe.neighbors());
  FloatColorField fin(probe.b()), fout(probe.geom(), probe.target_parity());
  const double dslash_float_us = fprobe.profile(fin, fout, 96).duration_us;

  // -- pure double CG ----------------------------------------------------------
  x.zero();
  CgOptions copts;
  copts.rel_tol = tol;
  const CgResult rd = cg_solve(op, b, x, copts);
  const double t_double = 2.0 * rd.iterations * dslash_double_us;

  // -- mixed precision: float inner solves + double corrections ---------------
  FloatDslash feo(op.view(Parity::Even), op.neighbors(Parity::Even));
  FloatDslash foe(op.view(Parity::Odd), op.neighbors(Parity::Odd));

  ColorField xm(geom, Parity::Even), r(geom, Parity::Even), Ax(geom, Parity::Even);
  xm.zero();
  const double b2 = norm2(b);
  int outer = 0, inner_total = 0;
  double rel = 1.0;
  for (; outer < 50; ++outer) {
    op.apply_normal(xm, Ax);
    r = b;
    axpy(-1.0, Ax, r);
    rel = std::sqrt(norm2(r) / b2);
    if (rel < tol) break;
    FloatColorField rf(r), ef(geom, Parity::Even);
    inner_total += float_cg(geom, feo, foe, mass * mass, rf, ef, 1e-5, 2000);
    const ColorField e = ef.to_double(geom);
    axpy(1.0, e, xm);
  }
  const double t_mixed =
      2.0 * inner_total * dslash_float_us + 2.0 * outer * dslash_double_us;

  std::printf("\nkernel costs (simulated, L=%d, 3LP-1/96): double %.1f us, float %.1f us "
              "(x%.2f)\n",
              opt.L, dslash_double_us, dslash_float_us, dslash_double_us / dslash_float_us);
  std::printf("\n%-28s %12s %12s %16s\n", "solver", "Dslash calls", "final res",
              "sim time (ms)");
  std::printf("%-28s %12d %12.1e %16.2f\n", "double CG", 2 * rd.iterations,
              rd.true_relative_residual, t_double / 1e3);
  std::printf("%-28s %12d %12.1e %16.2f   (x%.2f)\n", "mixed (float inner)",
              2 * inner_total + 2 * outer, rel, t_mixed / 1e3, t_double / t_mixed);
  const double call_inflation =
      static_cast<double>(2 * inner_total + 2 * outer) / (2.0 * rd.iterations);
  std::printf("\nreading: mixed precision pays off when the float kernel speed-up\n"
              "(x%.2f here) beats the extra iterations float convergence costs\n"
              "(x%.2f more Dslash calls here).  At this lattice size the kernel is\n"
              "partly latency-bound so the speed-up is modest; at L=32 the float\n"
              "kernel approaches the bandwidth-limited 2x and the trade flips —\n"
              "exactly why QUDA gates mixed precision behind its autotuner.\n",
              dslash_double_us / dslash_float_us, call_inflation);
  return 0;
}
