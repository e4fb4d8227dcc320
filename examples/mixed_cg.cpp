// mixed_cg — QUDA-style mixed-precision solver (defect correction / reliable
// updates): the inner CG runs entirely in single precision — roughly half
// the memory traffic of the double-precision operator on a bandwidth-bound
// kernel — while an outer double-precision residual correction restores full
// accuracy.  This is the "mixed-precision solvers" feature of QUDA the paper
// cites (§I, §IV-D3), built on the same 3LP-1 kernel instantiated at float.
//
//   ./examples/mixed_cg [--L 8] [--mass 0.1] [--tol 1e-10]
#include <cstdio>

#include "cli.hpp"
#include "core/dslash_ref.hpp"
#include "core/precision.hpp"
#include "core/solver.hpp"

using namespace milc;

namespace {

struct Operators {
  const LatticeGeom& geom;
  GaugeView ve, vo;
  NeighborTable ne, no;
  FloatDslash feo, foe;
  double mass;

  Operators(const LatticeGeom& g, const GaugeConfiguration& cfg, double m)
      : geom(g),
        ve(g, cfg, Parity::Even),
        vo(g, cfg, Parity::Odd),
        ne(g, Parity::Even),
        no(g, Parity::Odd),
        feo(ve, ne),
        foe(vo, no),
        mass(m) {}

  /// Double-precision A x = m^2 x - D_eo D_oe x (serial reference kernels).
  void apply_double(const ColorField& in, ColorField& out, ColorField& tmp_o) const {
    dslash_reference(vo, no, in, tmp_o);
    dslash_reference(ve, ne, tmp_o, out);
    scale(-1.0, out);
    axpy(mass * mass, in, out);
  }

  /// Single-precision A, two float 3LP-1 kernel launches.
  void apply_float(const FloatColorField& in, FloatColorField& out,
                   FloatColorField& tmp_o) const {
    foe.apply(in, tmp_o);
    feo.apply(tmp_o, out);
    for (std::int64_t s = 0; s < out.size(); ++s) {
      for (int i = 0; i < kColors; ++i) {
        out[s].c[i].re = static_cast<float>(mass * mass) * in[s].c[i].re - out[s].c[i].re;
        out[s].c[i].im = static_cast<float>(mass * mass) * in[s].c[i].im - out[s].c[i].im;
      }
    }
  }
};

/// Inner float CG: solve A e = r to a (float-limited) relative tolerance.
int float_cg(const Operators& ops, const FloatColorField& rhs, FloatColorField& x,
             double rel_tol, int max_iter) {
  const LatticeGeom& g = ops.geom;
  FloatColorField r = rhs, p = rhs, Ap(g, Parity::Even), tmp_o(g, Parity::Odd);
  x.zero();
  double rr = norm2(r);
  const double target = rel_tol * rel_tol * norm2(rhs);
  int it = 0;
  for (; it < max_iter && rr > target; ++it) {
    ops.apply_float(p, Ap, tmp_o);
    if (!cg_step(Ap, x, r, p, rr)) break;
  }
  return it;
}

}  // namespace

int main(int argc, char** argv) {
  int L = 8;
  double mass = 0.1, tol = 1e-10;
  examples::parse_flags(argc, argv, {{"--L", L, 2}, {"--mass", mass}, {"--tol", tol}});

  LatticeGeom geom(L);
  GaugeConfiguration cfg(geom);
  cfg.fill_random(17);
  Operators ops(geom, cfg, mass);

  ColorField b(geom, Parity::Even), x(geom, Parity::Even);
  b.fill_random(23);
  x.zero();
  const double b2 = norm2(b);

  std::printf("mixed-precision CG on %d^4, mass=%.3f, target %.1e\n", L, mass, tol);
  ColorField r = b, tmp_o(geom, Parity::Odd), Ax(geom, Parity::Even);
  int outer = 0, inner_total = 0;
  double rel = 1.0;
  for (; outer < 50; ++outer) {
    // Outer double residual: r = b - A x.
    ops.apply_double(x, Ax, tmp_o);
    r = b;
    axpy(-1.0, Ax, r);
    rel = std::sqrt(norm2(r) / b2);
    std::printf("  outer %2d: double residual %.3e\n", outer, rel);
    if (rel < tol) break;

    // Inner float solve of the defect equation A e = r.
    FloatColorField rf(r), ef(geom, Parity::Even);
    const int inner = float_cg(ops, rf, ef, 1e-5, 1000);
    inner_total += inner;

    // Reliable update in double.
    const ColorField e = ef.to_double(geom);
    axpy(1.0, e, x);
  }
  std::printf("converged: %.3e after %d outer corrections, %d inner float iterations\n", rel,
              outer, inner_total);
  std::printf("(each inner iteration moves ~half the bytes of a double iteration —\n"
              " see bench_precision for the simulated kernel-speed comparison)\n");
  return rel < tol * 10 ? 0 : 1;
}
