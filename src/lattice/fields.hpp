// fields.hpp — lattice quark (colour-vector) and gluon (gauge-link) fields.
//
// Storage follows the MILC-Dslash benchmark:
//  * quark fields live on one parity: |s*| = L^4/2 colour vectors;
//  * the gauge field is presented to the kernel as |l| = 4 gathered arrays
//    (fat, long, fat-back-adjoint, long-back-adjoint), each of size
//    (L^4/2) x |k| matrices, indexed [site*4 + k] — "we store fat-links and
//    long-links along with their respective adjoints, which leads us to have
//    |l| = 4 instead of |l| = 2" (paper §II).  Each stored matrix is read
//    exactly once per Dslash application.
//  * one type holds that gathered set, GaugeView, in the kernels' layout
//    (per family a flat complex array in [site][k][col j][row i] order);
//    host code reads a matrix through `link()`, which returns it by value.
#pragma once

#include <cstdint>
#include <vector>

#include "lattice/geometry.hpp"
#include "su3/random_su3.hpp"
#include "su3/su3_matrix.hpp"
#include "su3/su3_vector.hpp"

namespace milc {

/// A colour-vector field resident on the sites of one parity.
class ColorField {
 public:
  ColorField() = default;
  ColorField(const LatticeGeom& geom, Parity p)
      : parity_(p), data_(static_cast<std::size_t>(geom.half_volume())) {}

  [[nodiscard]] Parity parity() const { return parity_; }
  [[nodiscard]] std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }

  [[nodiscard]] SU3Vector<dcomplex>& operator[](std::int64_t s) {
    return data_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const SU3Vector<dcomplex>& operator[](std::int64_t s) const {
    return data_[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] SU3Vector<dcomplex>* data() { return data_.data(); }
  [[nodiscard]] const SU3Vector<dcomplex>* data() const { return data_.data(); }
  [[nodiscard]] std::size_t bytes() const { return data_.size() * sizeof(SU3Vector<dcomplex>); }

  void zero();
  void fill_random(std::uint64_t seed);

 private:
  Parity parity_ = Parity::Even;
  std::vector<SU3Vector<dcomplex>> data_;
};

// -- BLAS-like vector operations (used by tests and the CG example) ----------

/// ||v||^2 summed over sites.
[[nodiscard]] double norm2(const ColorField& v);
/// <a, b> = sum_s <a_s, b_s> (Hermitian).
[[nodiscard]] dcomplex dot(const ColorField& a, const ColorField& b);
/// y += alpha * x
void axpy(double alpha, const ColorField& x, ColorField& y);
/// y = x + alpha * y
void xpay(const ColorField& x, double alpha, ColorField& y);
/// y = alpha * y
void scale(double alpha, ColorField& y);
/// Largest per-component absolute difference between two fields.
[[nodiscard]] double max_abs_diff(const ColorField& a, const ColorField& b);

/// The fundamental gauge configuration: fat and long links on every site of
/// the full lattice, one per dimension, indexed [full_site*4 + k].
class GaugeConfiguration {
 public:
  GaugeConfiguration() = default;
  explicit GaugeConfiguration(const LatticeGeom& geom);

  /// Fill both families with independent random SU(3) matrices.
  void fill_random(std::uint64_t seed);
  /// A configuration of `geom` filled by fill_random(seed).
  [[nodiscard]] static GaugeConfiguration random(const LatticeGeom& geom, std::uint64_t seed);

  /// Sites of the full lattice the configuration covers.
  [[nodiscard]] std::int64_t volume() const {
    return static_cast<std::int64_t>(fat_.size()) / kNdim;
  }

  [[nodiscard]] const SU3Matrix<dcomplex>& fat(std::int64_t full_site, int k) const {
    return fat_[static_cast<std::size_t>(full_site * kNdim + k)];
  }
  [[nodiscard]] const SU3Matrix<dcomplex>& lng(std::int64_t full_site, int k) const {
    return lng_[static_cast<std::size_t>(full_site * kNdim + k)];
  }
  [[nodiscard]] SU3Matrix<dcomplex>& fat(std::int64_t full_site, int k) {
    return fat_[static_cast<std::size_t>(full_site * kNdim + k)];
  }
  [[nodiscard]] SU3Matrix<dcomplex>& lng(std::int64_t full_site, int k) {
    return lng_[static_cast<std::size_t>(full_site * kNdim + k)];
  }

 private:
  std::vector<SU3Matrix<dcomplex>> fat_;
  std::vector<SU3Matrix<dcomplex>> lng_;
};

/// The gathered gauge field for one target parity: the four link arrays of
/// the paper's l-loop, each [target_site*4 + k].
///   l = 0: fat(s, k)                     (forward +1, sign +)
///   l = 1: long(s, k)                    (forward +3, sign +)
///   l = 2: fat(s - k_hat, k)^dagger      (backward -1, sign -)
///   l = 3: long(s - 3 k_hat, k)^dagger   (backward -3, sign -)
/// Each family is stored as the SYCL kernels read it: a flat complex array
/// in [site][k][col j][row i] order — matrices column-major, so work-items
/// with consecutive row index i access adjacent complex elements (the
/// coalescing-friendly layout of paper §IV-D7).
class GaugeView {
 public:
  GaugeView() = default;
  /// Throws std::invalid_argument when `cfg` covers another volume than `geom`.
  GaugeView(const LatticeGeom& geom, const GaugeConfiguration& cfg, Parity target);

  [[nodiscard]] Parity target_parity() const { return target_; }
  [[nodiscard]] std::int64_t sites() const { return sites_; }

  /// Raw base pointer of link family l (for kernels).
  [[nodiscard]] const dcomplex* family(int l) const {
    return data_[static_cast<std::size_t>(l)].data();
  }

  /// Element (i, j) of the family-l matrix at (target site, dim k).
  [[nodiscard]] const dcomplex& at(int l, std::int64_t s, int k, int i, int j) const {
    return data_[static_cast<std::size_t>(l)][offset(s, k, i, j)];
  }

  /// Matrix for link family l at (target site, dim k), assembled by value:
  /// no row-major matrix is stored to return a reference to.
  [[nodiscard]] SU3Matrix<dcomplex> link(int l, std::int64_t s, int k) const {
    SU3Matrix<dcomplex> m;
    for (int j = 0; j < kColors; ++j) {
      for (int i = 0; i < kColors; ++i) m.e[i][j] = at(l, s, k, i, j);
    }
    return m;
  }

 private:
  [[nodiscard]] static std::size_t offset(std::int64_t s, int k, int i, int j) {
    return static_cast<std::size_t>(((s * kNdim + k) * kColors + j) * kColors + i);
  }
  void store(int l, std::int64_t s, int k, const SU3Matrix<dcomplex>& m);

  Parity target_ = Parity::Even;
  std::int64_t sites_ = 0;
  std::array<std::vector<dcomplex>, kNlinks> data_{};
};

}  // namespace milc
