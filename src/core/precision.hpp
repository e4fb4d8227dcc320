// precision.hpp — single-precision fields and Dslash application, the
// building blocks of QUDA-style mixed-precision solvers (paper §I/§IV-D3:
// "QUDA supports gauge field compression, mixed-precision solvers, ...").
//
// The strategy kernels are precision-agnostic templates, so the float path
// reuses Dslash3LP1Kernel<Order, scomplex> verbatim; only the field storage
// (half the bytes, hence roughly half the simulated memory traffic) and the
// double<->float conversions live here.
#pragma once

#include <cstdint>
#include <vector>

#include "complexlib/scomplex.hpp"
#include "core/dslash_args.hpp"
#include "gpusim/stats.hpp"
#include "lattice/fields.hpp"
#include "minisycl/queue.hpp"

namespace milc {

/// A colour-vector field at single precision.
class FloatColorField {
 public:
  FloatColorField() = default;
  FloatColorField(const LatticeGeom& geom, Parity p)
      : parity_(p), data_(static_cast<std::size_t>(geom.half_volume())) {}
  /// Truncating conversion from a double-precision field.
  explicit FloatColorField(const ColorField& f);

  [[nodiscard]] Parity parity() const { return parity_; }
  [[nodiscard]] std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }
  [[nodiscard]] SU3Vector<scomplex>& operator[](std::int64_t s) {
    return data_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const SU3Vector<scomplex>& operator[](std::int64_t s) const {
    return data_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] SU3Vector<scomplex>* data() { return data_.data(); }
  [[nodiscard]] const SU3Vector<scomplex>* data() const { return data_.data(); }

  void zero();
  /// Promote to double precision.
  [[nodiscard]] ColorField to_double(const LatticeGeom& geom) const;

 private:
  Parity parity_ = Parity::Even;
  std::vector<SU3Vector<scomplex>> data_;
};

// Float BLAS (accumulations in double, as a careful float solver does).
[[nodiscard]] double norm2(const FloatColorField& v);
[[nodiscard]] dcomplex dot(const FloatColorField& a, const FloatColorField& b);
void axpy(double alpha, const FloatColorField& x, FloatColorField& y);
void xpay(const FloatColorField& x, double alpha, FloatColorField& y);

/// Single-precision device gauge layout (column-major, like GaugeView, at
/// half the bytes).
class FloatGaugeDevice {
 public:
  FloatGaugeDevice() = default;
  explicit FloatGaugeDevice(const GaugeView& view);

  [[nodiscard]] const scomplex* family(int l) const {
    return data_[static_cast<std::size_t>(l)].data();
  }
  [[nodiscard]] std::int64_t sites() const { return sites_; }

 private:
  std::int64_t sites_ = 0;
  std::array<std::vector<scomplex>, kNlinks> data_{};
};

/// One parity's single-precision Dslash application using the 3LP-1 kernel.
/// Holds non-owning references to the neighbour table (keep the problem
/// alive), and owns the float gauge copy.
class FloatDslash {
 public:
  FloatDslash(const GaugeView& view, const NeighborTable& nbr);

  /// out = Dslash x in (functional execution).
  void apply(const FloatColorField& in, FloatColorField& out, int local_size = 96) const;

  /// Profiled execution for benches; output still computed.
  [[nodiscard]] gpusim::KernelStats profile(const FloatColorField& in, FloatColorField& out,
                                            int local_size) const;

  [[nodiscard]] std::int64_t sites() const { return gauge_.sites(); }

 private:
  DslashArgs<scomplex> make_args(const FloatColorField& in, FloatColorField& out) const;

  FloatGaugeDevice gauge_;
  const NeighborTable* nbr_;
};

}  // namespace milc
