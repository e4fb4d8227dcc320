// problem.hpp — a fully prepared MILC-Dslash benchmark instance.
#pragma once

#include <cstdint>
#include <memory>

#include "core/dslash_args.hpp"
#include "lattice/fields.hpp"

namespace milc {

/// Owns everything one Dslash application needs: geometry, the gathered
/// gauge field, neighbour table and the quark fields.  The SU(3)
/// configuration it gathers from is not kept.  Building it is the expensive
/// part, so benches construct one problem per lattice size and reuse it
/// across strategy/variant sweeps.
class DslashProblem {
 public:
  /// Hypercubic L^4 lattice (paper: L = 32; benches default to 16 so the
  /// single-core simulation of millions of work-items stays tractable).
  explicit DslashProblem(int L, std::uint64_t seed = 2024, Parity target = Parity::Even);

  /// General even-extent lattice (e.g. asymmetric 4 x 6 x 8 x 10).  The
  /// gauge configuration is GaugeConfiguration::random(LatticeGeom(dims), seed).
  explicit DslashProblem(const Coords& dims, std::uint64_t seed = 2024,
                         Parity target = Parity::Even);

  /// Gathers the given configuration of `dims` (throws std::invalid_argument
  /// when its volume is another); `seed` draws b as the seed constructors
  /// do.  Several problems over one configuration (both parities, say)
  /// generate it once.
  DslashProblem(const Coords& dims, const GaugeConfiguration& gauge, std::uint64_t seed = 2024,
                Parity target = Parity::Even);

  [[nodiscard]] const LatticeGeom& geom() const { return geom_; }
  [[nodiscard]] const GaugeView& view() const { return view_; }
  [[nodiscard]] const NeighborTable& neighbors() const { return nbr_; }
  [[nodiscard]] const ColorField& b() const { return b_; }
  [[nodiscard]] ColorField& b() { return b_; }
  [[nodiscard]] ColorField& c() { return c_; }
  [[nodiscard]] const ColorField& c() const { return c_; }
  [[nodiscard]] std::int64_t sites() const { return geom_.half_volume(); }
  [[nodiscard]] Parity target_parity() const { return target_; }

  /// Kernel argument block writing into this problem's C field.
  [[nodiscard]] DslashArgs<dcomplex> args();

  /// Theoretical FLOPs of one Dslash application (paper convention).
  [[nodiscard]] double flops() const { return dslash_flops(sites()); }

 private:
  LatticeGeom geom_;
  Parity target_;
  GaugeView view_;
  NeighborTable nbr_;
  ColorField b_;
  ColorField c_;
};

}  // namespace milc
