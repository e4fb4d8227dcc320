// staggered_operator.hpp — the full even/odd staggered Dirac operator and
// its even-odd-preconditioned normal form, packaged as library surface.
//
// The Dslash kernels answer "how fast can one hop application run"; a
// downstream user wants the operator MILC actually inverts:
//
//     M = m I + D      (D: the 16-point hopping term, parity-off-diagonal)
//     A = m^2 I - D_eo D_oe   (Hermitian positive definite on even sites)
//
// This class owns both parities' gathered gauge data and neighbour tables
// and applies D / A through the 3LP-1 kernel (functional mode).
#pragma once

#include <cstdint>
#include <memory>

#include "core/dslash_args.hpp"
#include "lattice/fields.hpp"

namespace milc {

class StaggeredOperator {
 public:
  /// Builds both parity views from a gauge configuration.
  StaggeredOperator(const LatticeGeom& geom, const GaugeConfiguration& cfg, double mass);

  [[nodiscard]] const LatticeGeom& geom() const { return *geom_; }
  [[nodiscard]] double mass() const { return mass_; }

  /// The gathered links and the neighbour table of a hop into `target`.
  [[nodiscard]] const GaugeView& view(Parity target) const {
    return target == Parity::Even ? view_e_ : view_o_;
  }
  [[nodiscard]] const NeighborTable& neighbors(Parity target) const {
    return target == Parity::Even ? nbr_e_ : nbr_o_;
  }

  /// out(even) = D_eo in(odd)
  void dslash_eo(const ColorField& in, ColorField& out) const;
  /// out(odd) = D_oe in(even)
  void dslash_oe(const ColorField& in, ColorField& out) const;

  /// out = (m^2 I - D_eo D_oe) in, both fields even.  Hermitian positive
  /// definite: <x, A x> = m^2 |x|^2 + |D_oe x|^2.
  void apply_normal(const ColorField& in, ColorField& out) const;

  /// Full unpreconditioned operator on a parity pair:
  /// (out_e, out_o) = (m in_e + D_eo in_o, m in_o + D_oe in_e).
  void apply_full(const ColorField& in_e, const ColorField& in_o, ColorField& out_e,
                  ColorField& out_o) const;

 private:
  void apply_half(Parity target, const ColorField& in, ColorField& out) const;

  const LatticeGeom* geom_;
  double mass_;
  GaugeView view_e_, view_o_;
  NeighborTable nbr_e_, nbr_o_;
  mutable ColorField tmp_odd_;  // scratch for apply_normal
};

}  // namespace milc
