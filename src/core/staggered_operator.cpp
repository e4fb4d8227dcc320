#include "core/staggered_operator.hpp"

#include <cassert>

#include "core/dispatch.hpp"
#include "core/dslash_ref.hpp"
#include "minisycl/queue.hpp"

namespace milc {

StaggeredOperator::StaggeredOperator(const LatticeGeom& geom, const GaugeConfiguration& cfg,
                                     double mass)
    : geom_(&geom),
      mass_(mass),
      view_e_(geom, cfg, Parity::Even),
      view_o_(geom, cfg, Parity::Odd),
      nbr_e_(geom, Parity::Even),
      nbr_o_(geom, Parity::Odd),
      tmp_odd_(geom, Parity::Odd) {}

void StaggeredOperator::apply_half(Parity target, const ColorField& in, ColorField& out) const {
  assert(out.parity() == target && in.parity() == opposite(target));
  const DslashArgs<dcomplex> args = make_dslash_args(view(target), neighbors(target), in, out);
  using Kernel = Dslash3LP1Kernel<Order3::kMajor>;
  Kernel kernel{args};
  minisycl::queue q(minisycl::ExecMode::functional, minisycl::QueueOrder::in_order);
  q.submit(dslash_launch<Kernel>(args, args.sites, Strategy::LP3_1, 96), kernel);
}

void StaggeredOperator::dslash_eo(const ColorField& in, ColorField& out) const {
  apply_half(Parity::Even, in, out);
}

void StaggeredOperator::dslash_oe(const ColorField& in, ColorField& out) const {
  apply_half(Parity::Odd, in, out);
}

void StaggeredOperator::apply_normal(const ColorField& in, ColorField& out) const {
  dslash_oe(in, tmp_odd_);
  dslash_eo(tmp_odd_, out);
  scale(-1.0, out);
  axpy(mass_ * mass_, in, out);
}

void StaggeredOperator::apply_full(const ColorField& in_e, const ColorField& in_o,
                                   ColorField& out_e, ColorField& out_o) const {
  // out_e = m in_e + D_eo in_o
  dslash_eo(in_o, out_e);
  axpy(mass_, in_e, out_e);
  // out_o = m in_o + D_oe in_e
  dslash_oe(in_e, out_o);
  axpy(mass_, in_o, out_o);
}

}  // namespace milc
