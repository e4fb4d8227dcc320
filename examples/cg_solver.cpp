// cg_solver — the workload the Dslash kernel exists for: solving the
// staggered Dirac equation.  The even-odd preconditioned normal operator
//
//     A = m^2 I - D_eo D_oe
//
// is Hermitian positive definite (D_eo^dagger = -D_oe), so conjugate
// gradients converge; every A-application is two Dslash kernel launches —
// exactly how MILC's su3_rhmd_hisq spends most of its cycles.
//
//   ./examples/cg_solver [--L 8] [--mass 0.1] [--tol 1e-8]
#include <cmath>
#include <cstdio>

#include "cli.hpp"
#include "core/dispatch.hpp"
#include "core/dslash_ref.hpp"
#include "core/solver.hpp"
#include "minisycl/queue.hpp"

using namespace milc;

namespace {

/// One parity's worth of Dslash machinery.
struct HalfOperator {
  GaugeView gauge;
  NeighborTable nbr;

  HalfOperator(const LatticeGeom& geom, const GaugeConfiguration& cfg, Parity target)
      : gauge(geom, cfg, target), nbr(geom, target) {}

  /// out(target parity) = Dslash x in(source parity), via the 3LP-1 kernel.
  void apply(minisycl::queue& q, const ColorField& in, ColorField& out) const {
    const DslashArgs<dcomplex> args = make_dslash_args(gauge, nbr, in, out);
    using Kernel = Dslash3LP1Kernel<Order3::kMajor>;
    Kernel kernel{args};
    q.submit(dslash_launch<Kernel>(args, args.sites, Strategy::LP3_1, 96), kernel);
  }
};

}  // namespace

int main(int argc, char** argv) {
  int L = 8;
  double mass = 0.1, tol = 1e-8;
  examples::parse_flags(argc, argv, {{"--L", L, 2}, {"--mass", mass}, {"--tol", tol}});

  LatticeGeom geom(L);
  GaugeConfiguration cfg(geom);
  cfg.fill_random(7);
  HalfOperator D_eo(geom, cfg, Parity::Even);  // odd -> even
  HalfOperator D_oe(geom, cfg, Parity::Odd);   // even -> odd
  minisycl::queue q(minisycl::ExecMode::functional, minisycl::QueueOrder::in_order);

  ColorField b(geom, Parity::Even), x(geom, Parity::Even);
  b.fill_random(11);
  x.zero();

  ColorField tmp_o(geom, Parity::Odd);
  // A x = m^2 x - D_eo (D_oe x)
  auto apply_A = [&](const ColorField& in, ColorField& out) {
    D_oe.apply(q, in, tmp_o);
    D_eo.apply(q, tmp_o, out);
    scale(-1.0, out);
    axpy(mass * mass, in, out);
  };

  // Conjugate gradients.
  ColorField r = b, p = b, Ap(geom, Parity::Even);
  double rr = norm2(r);
  const double b2 = norm2(b);
  std::printf("CG on %d^4 lattice, mass=%.3f, |b|^2=%.4e\n", L, mass, b2);
  int it = 0;
  for (; it < 2000 && rr / b2 > tol * tol; ++it) {
    apply_A(p, Ap);
    if (!cg_step(Ap, x, r, p, rr)) break;
    if (it % 10 == 0) std::printf("  iter %4d  relative residual %.3e\n", it, std::sqrt(rr / b2));
  }
  std::printf("converged in %d iterations: relative residual %.3e\n", it, std::sqrt(rr / b2));

  // Independent verification: ||A x - b|| with the serial reference Dslash.
  ColorField t1(geom, Parity::Odd), t2(geom, Parity::Even);
  dslash_reference(D_oe.gauge, D_oe.nbr, x, t1);
  dslash_reference(D_eo.gauge, D_eo.nbr, t1, t2);
  scale(-1.0, t2);
  axpy(mass * mass, x, t2);
  axpy(-1.0, b, t2);
  std::printf("reference check: ||A x - b|| / ||b|| = %.3e\n",
              std::sqrt(norm2(t2) / b2));
  return std::sqrt(rr / b2) <= tol * 10 ? 0 : 1;
}
