#include "lattice/fields.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace milc {

void ColorField::zero() { std::fill(data_.begin(), data_.end(), SU3Vector<dcomplex>{}); }

void ColorField::fill_random(std::uint64_t seed) {
  Rng rng(seed);
  for (auto& v : data_) v = random_vector(rng);
}

double norm2(const ColorField& v) {
  double acc = 0.0;
  for (std::int64_t s = 0; s < v.size(); ++s) acc += norm2(v[s]);
  return acc;
}

dcomplex dot(const ColorField& a, const ColorField& b) {
  assert(a.size() == b.size());
  dcomplex acc{0.0, 0.0};
  for (std::int64_t s = 0; s < a.size(); ++s) acc += dot(a[s], b[s]);
  return acc;
}

void axpy(double alpha, const ColorField& x, ColorField& y) {
  assert(x.size() == y.size());
  for (std::int64_t s = 0; s < x.size(); ++s) y[s] += alpha * x[s];
}

void xpay(const ColorField& x, double alpha, ColorField& y) {
  assert(x.size() == y.size());
  for (std::int64_t s = 0; s < x.size(); ++s) y[s] = x[s] + alpha * y[s];
}

void scale(double alpha, ColorField& y) {
  for (std::int64_t s = 0; s < y.size(); ++s) y[s] = alpha * y[s];
}

double max_abs_diff(const ColorField& a, const ColorField& b) {
  assert(a.size() == b.size());
  double m = 0.0;
  for (std::int64_t s = 0; s < a.size(); ++s) {
    for (int i = 0; i < kColors; ++i) {
      m = std::max(m, std::fabs(a[s].c[i].re - b[s].c[i].re));
      m = std::max(m, std::fabs(a[s].c[i].im - b[s].c[i].im));
    }
  }
  return m;
}

GaugeConfiguration::GaugeConfiguration(const LatticeGeom& geom)
    : fat_(static_cast<std::size_t>(geom.volume() * kNdim)),
      lng_(static_cast<std::size_t>(geom.volume() * kNdim)) {}

void GaugeConfiguration::fill_random(std::uint64_t seed) {
  Rng rng(seed);
  for (auto& m : fat_) m = random_su3(rng);
  for (auto& m : lng_) m = random_su3(rng);
}

GaugeConfiguration GaugeConfiguration::random(const LatticeGeom& geom, std::uint64_t seed) {
  GaugeConfiguration cfg(geom);
  cfg.fill_random(seed);
  return cfg;
}

GaugeView::GaugeView(const LatticeGeom& geom, const GaugeConfiguration& cfg, Parity target)
    : target_(target), sites_(geom.half_volume()) {
  if (cfg.volume() != geom.volume()) {
    throw std::invalid_argument("GaugeView: a configuration of " +
                                std::to_string(cfg.volume()) + " sites on a lattice of " +
                                std::to_string(geom.volume()));
  }
  for (auto& fam : data_) fam.resize(static_cast<std::size_t>(sites_ * kNdim * kColors * kColors));
  for (std::int64_t s = 0; s < sites_; ++s) {
    const std::int64_t f = geom.full_index_of(target, s);
    const Coords c = geom.coords(f);
    for (int k = 0; k < kNdim; ++k) {
      const std::int64_t back1 = geom.full_index(geom.displace(c, k, -1));
      const std::int64_t back3 = geom.full_index(geom.displace(c, k, -3));
      store(0, s, k, cfg.fat(f, k));
      store(1, s, k, cfg.lng(f, k));
      store(2, s, k, adjoint(cfg.fat(back1, k)));
      store(3, s, k, adjoint(cfg.lng(back3, k)));
    }
  }
}

void GaugeView::store(int l, std::int64_t s, int k, const SU3Matrix<dcomplex>& m) {
  auto& fam = data_[static_cast<std::size_t>(l)];
  for (int j = 0; j < kColors; ++j) {
    for (int i = 0; i < kColors; ++i) fam[offset(s, k, i, j)] = m.e[i][j];
  }
}

}  // namespace milc
