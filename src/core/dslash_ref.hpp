// dslash_ref.hpp — serial reference implementations of the Dslash operator.
//
// `dslash_reference` consumes the same gathered GaugeView/NeighborTable the
// kernels use; `dslash_from_configuration` evaluates eq. (1) directly from
// the fundamental links (building adjoints on the fly), providing an
// independent cross-check of the gather itself.
#pragma once

#include "core/dslash_args.hpp"
#include "lattice/fields.hpp"

namespace milc {

/// C = Dslash x B over the gathered view (the kernels' data layout).
void dslash_reference(const GaugeView& view, const NeighborTable& nbr, const ColorField& b,
                      ColorField& c);

/// C = Dslash x B directly from eq. (1): for each target site s,
/// C(s) = sum_k [ F(s,k) B(s+k) + L(s,k) B(s+3k)
///                - F(s-k,k)^dag B(s-k) - L(s-3k,k)^dag B(s-3k) ].
void dslash_from_configuration(const LatticeGeom& geom, const GaugeConfiguration& cfg,
                               Parity target, const ColorField& b, ColorField& c);

/// Build the kernel argument block for a prepared problem.  The caller keeps
/// ownership of all buffers.
[[nodiscard]] DslashArgs<dcomplex> make_dslash_args(const GaugeView& view,
                                                    const NeighborTable& nbr,
                                                    const ColorField& b, ColorField& c);

}  // namespace milc
