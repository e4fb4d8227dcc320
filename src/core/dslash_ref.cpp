#include "core/dslash_ref.hpp"

#include <cassert>

namespace milc {

void dslash_reference(const GaugeView& view, const NeighborTable& nbr, const ColorField& b,
                      ColorField& c) {
  assert(c.size() == view.sites());
  for (std::int64_t s = 0; s < view.sites(); ++s) {
    SU3Vector<dcomplex> acc;
    for (int k = 0; k < kNdim; ++k) {
      for (int l = 0; l < kNlinks; ++l) {
        const std::int32_t n = nbr.at(s, k, l);
        const SU3Vector<dcomplex> v = matvec(view.link(l, s, k), b[n]);
        const double sign = kStencilSigns[static_cast<std::size_t>(l)];
        acc += sign * v;
      }
    }
    c[s] = acc;
  }
}

void dslash_from_configuration(const LatticeGeom& geom, const GaugeConfiguration& cfg,
                               Parity target, const ColorField& b, ColorField& c) {
  for (std::int64_t s = 0; s < geom.half_volume(); ++s) {
    const std::int64_t f = geom.full_index_of(target, s);
    const Coords x = geom.coords(f);
    SU3Vector<dcomplex> acc;
    for (int k = 0; k < kNdim; ++k) {
      const std::int64_t fwd1 = geom.full_index(geom.displace(x, k, +1));
      const std::int64_t fwd3 = geom.full_index(geom.displace(x, k, +3));
      const std::int64_t bck1 = geom.full_index(geom.displace(x, k, -1));
      const std::int64_t bck3 = geom.full_index(geom.displace(x, k, -3));
      acc += matvec(cfg.fat(f, k), b[geom.eo_index(fwd1)]);
      acc += matvec(cfg.lng(f, k), b[geom.eo_index(fwd3)]);
      acc -= adj_matvec(cfg.fat(bck1, k), b[geom.eo_index(bck1)]);
      acc -= adj_matvec(cfg.lng(bck3, k), b[geom.eo_index(bck3)]);
    }
    c[s] = acc;
  }
}

DslashArgs<dcomplex> make_dslash_args(const GaugeView& view, const NeighborTable& nbr,
                                      const ColorField& b, ColorField& c) {
  DslashArgs<dcomplex> args;
  for (int l = 0; l < kNlinks; ++l) args.links[l] = view.family(l);
  args.b = b.data();
  args.c_out = c.data();
  args.neighbors = nbr.data();
  args.sites = view.sites();
  return args;
}

}  // namespace milc
