// hisq_pipeline — the miniature su3_rhmd_hisq: everything between "empty
// lattice" and "quark propagator", end to end:
//
//   1. thermalise thin links with Metropolis at coupling beta
//   2. build HISQ-style fat (smeared + reunitarised) and long (Naik) links
//   3. invert the staggered operator on the smeared field with CG
//
// This is the production pipeline whose inner loop the paper's Dslash
// kernels accelerate.
//
//   ./examples/hisq_pipeline [--L 6] [--beta 6.0] [--mass 0.2] [--sweeps 8]
#include <cstdio>

#include "cli.hpp"
#include "core/solver.hpp"
#include "lattice/hisq.hpp"
#include "lattice/metropolis.hpp"

using namespace milc;

int main(int argc, char** argv) {
  int L = 6, sweeps = 8;
  double beta = 6.0, mass = 0.2;
  examples::parse_flags(
      argc, argv, {{"--L", L, 2}, {"--beta", beta}, {"--mass", mass}, {"--sweeps", sweeps, 0}});

  LatticeGeom geom(L);

  // 1. Gauge generation.
  GaugeConfiguration thin(geom);
  thin.fill_random(7);
  std::printf("thermalising %d^4 thin links at beta=%.2f ...\n", L, beta);
  MetropolisOptions mopts;
  mopts.beta = beta;
  mopts.step = 0.25;
  mopts.hits_per_link = 3;
  for (int s = 0; s < sweeps; ++s) {
    const SweepStats st = metropolis_sweep(geom, thin, mopts, static_cast<std::uint64_t>(s));
    std::printf("  sweep %2d: plaquette %.4f  (acceptance %.0f%%)\n", s, st.avg_plaquette,
                100.0 * st.acceptance);
  }

  // 2. HISQ link construction.
  std::printf("building HISQ links (fat: smeared + U(3)-projected, long: Naik) ...\n");
  const GaugeConfiguration hisq = build_hisq_links(geom, thin);
  std::printf("  fat-link plaquette: %.4f (smearing raises it above the thin %.4f)\n",
              average_plaquette(geom, hisq), average_plaquette(geom, thin));

  // 3. Propagator on the smeared field.
  StaggeredOperator op(geom, hisq, mass);
  ColorField b(geom, Parity::Even), x(geom, Parity::Even);
  b.zero();
  b[0].c[0] = {1.0, 0.0};  // point source
  x.zero();
  CgOptions copts;
  copts.rel_tol = 1e-8;
  const CgResult r = cg_solve(op, b, x, copts);
  std::printf("CG on the HISQ field: %s in %d iterations (true residual %.2e)\n",
              r.converged ? "converged" : "NOT converged", r.iterations,
              r.true_relative_residual);
  std::printf("|propagator|^2 = %.6e\n", norm2(x));
  return r.converged ? 0 : 1;
}
