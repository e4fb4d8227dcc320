// plaquette — a gauge observable on top of the lattice substrate: the
// average plaquette  (1/3) Re tr[ U_mu(x) U_nu(x+mu) U_mu(x+nu)^+ U_nu(x)^+ ]
// over all sites and plane orientations.  For an ordered (unit) gauge field
// the plaquette is exactly 1; for a random SU(3) field it averages to ~0 —
// the two limits of the lattice-QCD coupling range.  Exercises the SU(3)
// algebra (matmul/adjoint/trace) and the periodic geometry.
//
//   ./examples/plaquette [--L 8]
#include <cstdio>

#include "cli.hpp"
#include "lattice/metropolis.hpp"

using namespace milc;


int main(int argc, char** argv) {
  int L = 8;
  examples::parse_flags(argc, argv, {{"--L", L, 2}});
  LatticeGeom geom(L);

  // Ordered start: every link is the identity.
  GaugeConfiguration unit(geom);
  for (std::int64_t f = 0; f < geom.volume(); ++f) {
    for (int k = 0; k < kNdim; ++k) {
      unit.fat(f, k) = SU3Matrix<dcomplex>::identity();
      unit.lng(f, k) = SU3Matrix<dcomplex>::identity();
    }
  }
  const double plaq_unit = average_plaquette(geom, unit);

  // Disordered start: independent Haar-random links.
  GaugeConfiguration random(geom);
  random.fill_random(99);
  const double plaq_random = average_plaquette(geom, random);

  // Thermalised: Metropolis sweeps at intermediate coupling drive the
  // disordered field toward a physical configuration in between.
  MetropolisOptions opts;
  opts.beta = 6.0;
  opts.step = 0.25;
  opts.hits_per_link = 3;
  const SweepStats st = thermalize(geom, random, opts, 10);

  std::printf("average plaquette on %d^4 (%lld sites x 6 planes):\n", L,
              static_cast<long long>(geom.volume()));
  std::printf("  ordered   (unit links):          %+.6f   (exact: 1)\n", plaq_unit);
  std::printf("  disordered (random SU3):         %+.6f   (expected: ~0, O(1/sqrt(V)))\n",
              plaq_random);
  std::printf("  thermalised (beta=6, 10 sweeps): %+.6f   (acceptance %.0f%%)\n",
              st.avg_plaquette, 100.0 * st.acceptance);

  const bool ok = std::abs(plaq_unit - 1.0) < 1e-12 && std::abs(plaq_random) < 0.05 &&
                  st.avg_plaquette > plaq_random + 0.1;
  std::printf("%s\n", ok ? "OK" : "UNEXPECTED VALUES");
  return ok ? 0 : 1;
}
