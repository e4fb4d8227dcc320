// wilson_solver.hpp — even/odd (Schur) preconditioned inversion of the
// Wilson operator, using gamma5-hermiticity for the normal equations.
//
// The full Wilson matrix (hopping normalisation r = 1):
//
//   M = (m + 4) I - 1/2 D,     D = the hopping term of wilson.hpp
//
// Eliminating the odd sites gives the Schur complement on even sites:
//
//   S = (m + 4) I - 1/(4 (m + 4)) D_eo D_oe
//
// S is not Hermitian, but gamma5 S gamma5 = S^dagger (inherited from
// gamma5 D_eo gamma5 = D_oe^dagger), so CG applies to the normal equations
// S^dagger S x = S^dagger b without ever forming an adjoint operator.
#pragma once

#include "wilson/wilson.hpp"

namespace milc::wilson {

class WilsonOperator {
 public:
  WilsonOperator(const LatticeGeom& geom, const GaugeConfiguration& cfg, double mass);

  [[nodiscard]] const LatticeGeom& geom() const { return *geom_; }
  [[nodiscard]] double mass() const { return mass_; }
  [[nodiscard]] double diag() const { return mass_ + 4.0; }

  /// out(even) = S in(even)  — the Schur complement.
  void apply_schur(const WilsonField& in, WilsonField& out) const;
  /// out(even) = S^dagger in(even) = g5 S g5 in.
  void apply_schur_dagger(const WilsonField& in, WilsonField& out) const;

  /// Hopping halves (device 3LP-style gauge reused from the staggered path).
  void dslash_eo(const WilsonField& in, WilsonField& out) const;
  void dslash_oe(const WilsonField& in, WilsonField& out) const;

 private:
  const LatticeGeom* geom_;
  double mass_;
  GaugeView view_e_, view_o_;
  NeighborTable nbr_e_, nbr_o_;
  WilsonDslash deo_, doe_;
  mutable WilsonField tmp_o_, tmp_e_;
};

// Wilson-field BLAS needed by the solver.
void axpy(double alpha, const WilsonField& x, WilsonField& y);
void xpay(const WilsonField& x, double alpha, WilsonField& y);
void scale(double alpha, WilsonField& y);

struct WilsonCgResult {
  bool converged = false;
  int iterations = 0;
  double relative_residual = 0.0;       ///< of the normal equations
  double true_relative_residual = 0.0;  ///< ||S x - b|| / ||b||
};

/// Solve S x = b on even sites by CG on S^dagger S (CGNE).
WilsonCgResult solve_schur_cg(const WilsonOperator& op, const WilsonField& b, WilsonField& x,
                              double rel_tol = 1e-8, int max_iterations = 5000);

}  // namespace milc::wilson
