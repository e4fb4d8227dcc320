#include "core/precision.hpp"

#include "core/dispatch.hpp"

namespace milc {

FloatColorField::FloatColorField(const ColorField& f)
    : parity_(f.parity()), data_(static_cast<std::size_t>(f.size())) {
  for (std::int64_t s = 0; s < f.size(); ++s) {
    for (int i = 0; i < kColors; ++i) {
      data_[static_cast<std::size_t>(s)].c[i] = scomplex(f[s].c[i]);
    }
  }
}

void FloatColorField::zero() {
  std::fill(data_.begin(), data_.end(), SU3Vector<scomplex>{});
}

ColorField FloatColorField::to_double(const LatticeGeom& geom) const {
  ColorField f(geom, parity_);
  for (std::int64_t s = 0; s < size(); ++s) {
    for (int i = 0; i < kColors; ++i) {
      f[s].c[i] = data_[static_cast<std::size_t>(s)].c[i].to_double();
    }
  }
  return f;
}

double norm2(const FloatColorField& v) {
  double acc = 0.0;
  for (std::int64_t s = 0; s < v.size(); ++s) {
    for (int i = 0; i < kColors; ++i) {
      const scomplex& z = v[s].c[i];
      acc += static_cast<double>(z.re) * z.re + static_cast<double>(z.im) * z.im;
    }
  }
  return acc;
}

dcomplex dot(const FloatColorField& a, const FloatColorField& b) {
  dcomplex acc{0.0, 0.0};
  for (std::int64_t s = 0; s < a.size(); ++s) {
    for (int i = 0; i < kColors; ++i) {
      const dcomplex x = a[s].c[i].to_double();
      const dcomplex y = b[s].c[i].to_double();
      cmac_conj(acc, x, y);
    }
  }
  return acc;
}

void axpy(double alpha, const FloatColorField& x, FloatColorField& y) {
  const float a = static_cast<float>(alpha);
  for (std::int64_t s = 0; s < x.size(); ++s) {
    for (int i = 0; i < kColors; ++i) {
      y[s].c[i].re += a * x[s].c[i].re;
      y[s].c[i].im += a * x[s].c[i].im;
    }
  }
}

void xpay(const FloatColorField& x, double alpha, FloatColorField& y) {
  const float a = static_cast<float>(alpha);
  for (std::int64_t s = 0; s < x.size(); ++s) {
    for (int i = 0; i < kColors; ++i) {
      y[s].c[i].re = x[s].c[i].re + a * y[s].c[i].re;
      y[s].c[i].im = x[s].c[i].im + a * y[s].c[i].im;
    }
  }
}

FloatGaugeDevice::FloatGaugeDevice(const GaugeView& view) : sites_(view.sites()) {
  // Same [site][k][j][i] order as the view: an element-wise narrowing.
  const std::int64_t elems = sites_ * kNdim * kColors * kColors;
  for (int l = 0; l < kNlinks; ++l) {
    data_[static_cast<std::size_t>(l)] =
        std::vector<scomplex>(view.family(l), view.family(l) + elems);
  }
}

FloatDslash::FloatDslash(const GaugeView& view, const NeighborTable& nbr)
    : gauge_(view), nbr_(&nbr) {}

DslashArgs<scomplex> FloatDslash::make_args(const FloatColorField& in,
                                            FloatColorField& out) const {
  DslashArgs<scomplex> args;
  for (int l = 0; l < kNlinks; ++l) args.links[l] = gauge_.family(l);
  args.b = in.data();
  args.c_out = out.data();
  args.neighbors = nbr_->data();
  args.sites = gauge_.sites();
  return args;
}

namespace {

using FloatKernel = Dslash3LP1Kernel<Order3::kMajor, scomplex>;

/// The float kernel's one launch: the 3LP-1 launch over single-precision
/// buffers, under its own name.
minisycl::LaunchSpec float_launch(const DslashArgs<scomplex>& a, int local_size) {
  minisycl::LaunchSpec spec = dslash_launch<FloatKernel>(a, a.sites, Strategy::LP3_1, local_size);
  spec.traits.name = "3LP-1 float";
  return spec;
}

}  // namespace

void FloatDslash::apply(const FloatColorField& in, FloatColorField& out,
                        int local_size) const {
  FloatKernel kernel{make_args(in, out)};
  minisycl::queue q(minisycl::ExecMode::functional, minisycl::QueueOrder::in_order);
  q.submit(float_launch(kernel.args, local_size), kernel);
}

gpusim::KernelStats FloatDslash::profile(const FloatColorField& in, FloatColorField& out,
                                         int local_size) const {
  FloatKernel kernel{make_args(in, out)};
  minisycl::queue q(minisycl::ExecMode::profiled, minisycl::QueueOrder::in_order);
  return q.submit(float_launch(kernel.args, local_size), kernel,
                  "3LP-1 float /" + std::to_string(local_size));
}

}  // namespace milc
