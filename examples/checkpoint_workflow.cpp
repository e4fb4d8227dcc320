// checkpoint_workflow — a production-shaped end-to-end run: generate a gauge
// configuration, checkpoint it to disk, reload it (validated), invert the
// staggered operator on a point source with CG, and cross-check the
// solution.  Exercises the I/O, operator and solver layers together.
//
//   ./examples/checkpoint_workflow [--L 6] [--mass 0.25]
#include <cstdio>

#include "cli.hpp"
#include "core/solver.hpp"
#include "lattice/io.hpp"

using namespace milc;

int main(int argc, char** argv) {
  int L = 6;
  double mass = 0.25;
  examples::parse_flags(argc, argv, {{"--L", L, 2}, {"--mass", mass}});

  LatticeGeom geom(L);

  // 1. Generate and checkpoint a configuration.
  GaugeConfiguration cfg(geom);
  cfg.fill_random(2026);
  const std::string path = "gauge_checkpoint.bin";
  io::save_gauge(path, geom, cfg);
  std::printf("saved %d^4 configuration to %s\n", L, path.c_str());

  // 2. Reload (magic, geometry and checksum validated) and verify identity.
  const GaugeConfiguration reloaded = io::load_gauge(path, geom);
  double max_diff = 0.0;
  for (std::int64_t f = 0; f < geom.volume(); f += 97) {
    for (int k = 0; k < kNdim; ++k) {
      max_diff = std::max(max_diff, max_abs_diff(cfg.fat(f, k), reloaded.fat(f, k)));
    }
  }
  std::printf("reloaded: max link difference %.1e\n", max_diff);

  // 3. Invert on a point source (one colour at the origin).
  StaggeredOperator op(geom, reloaded, mass);
  ColorField b(geom, Parity::Even), x(geom, Parity::Even);
  b.zero();
  b[0].c[0] = {1.0, 0.0};
  x.zero();
  CgOptions opts;
  opts.rel_tol = 1e-10;
  opts.log_every = 50;
  const CgResult r = cg_solve(op, b, x, opts);
  std::printf("CG: %s in %d iterations, true residual %.2e\n",
              r.converged ? "converged" : "NOT converged", r.iterations,
              r.true_relative_residual);

  // 4. Checkpoint the propagator too, reload, verify.
  io::save_color_field("propagator.bin", geom, x);
  const ColorField back = io::load_color_field("propagator.bin", geom);
  std::printf("propagator checkpoint round-trip: max diff %.1e, |x|^2 = %.6e\n",
              max_abs_diff(x, back), norm2(x));

  std::remove(path.c_str());
  std::remove("propagator.bin");
  return r.converged && max_diff == 0.0 ? 0 : 1;
}
