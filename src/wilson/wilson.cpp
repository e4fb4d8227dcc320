#include "wilson/wilson.hpp"

#include <cmath>

#include "su3/random_su3.hpp"

namespace milc::wilson {

void WilsonField::zero() { std::fill(data_.begin(), data_.end(), WilsonSpinor{}); }

void WilsonField::fill_random(std::uint64_t seed) {
  Rng rng(seed);
  for (auto& sp : data_) {
    for (int d = 0; d < kSpins; ++d) sp.s[d] = random_vector(rng);
  }
}

double norm2(const WilsonField& f) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < f.size(); ++i) {
    for (int d = 0; d < kSpins; ++d) acc += norm2(f[i].s[d]);
  }
  return acc;
}

double max_abs_diff(const WilsonField& a, const WilsonField& b) {
  double m = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    for (int d = 0; d < kSpins; ++d) {
      for (int c = 0; c < kColors; ++c) {
        m = std::max(m, cabs(a[i].s[d].c[c] - b[i].s[d].c[c]));
      }
    }
  }
  return m;
}

dcomplex dot(const WilsonField& a, const WilsonField& b) {
  dcomplex acc{0.0, 0.0};
  for (std::int64_t i = 0; i < a.size(); ++i) {
    for (int d = 0; d < kSpins; ++d) acc += dot(a[i].s[d], b[i].s[d]);
  }
  return acc;
}

void apply_gamma5(WilsonField& f) {
  const SpinMatrix& g5 = gamma5();
  for (std::int64_t i = 0; i < f.size(); ++i) {
    WilsonSpinor out{};
    for (int d = 0; d < kSpins; ++d) {
      for (int e = 0; e < kSpins; ++e) {
        const dcomplex& w = g5[static_cast<std::size_t>(d)][static_cast<std::size_t>(e)];
        if (w == dcomplex{0.0, 0.0}) continue;
        for (int c = 0; c < kColors; ++c) out.s[d].c[c] += cmul(w, f[i].s[e].c[c]);
      }
    }
    f[i] = out;
  }
}

double wilson_flops_per_site() {
  // 8 hops x (2 projections (24) + 2 mat-vecs (66) + 2 reconstructions (30)).
  return 8.0 * (2 * 24 + 2 * 66 + 2 * 30);
}

void wilson_reference(const GaugeView& view, const NeighborTable& nbr, const WilsonField& in,
                      WilsonField& out) {
  for (std::int64_t x = 0; x < view.sites(); ++x) {
    WilsonSpinor acc{};
    for (int dir = 0; dir < 2; ++dir) {
      const int link_l = dir == 0 ? 0 : 2;
      const int sign = dir == 0 ? +1 : -1;
      for (int mu = 0; mu < kNdim; ++mu) {
        const SpinMatrix m = one_minus_gamma(mu, static_cast<double>(sign));
        const WilsonSpinor& psi = in[nbr.at(x, mu, link_l)];
        // phi = (1 -+ gamma_mu) psi, full 4x4 spin multiply.
        WilsonSpinor phi{};
        for (int d = 0; d < kSpins; ++d) {
          for (int e = 0; e < kSpins; ++e) {
            const dcomplex& w = m[static_cast<std::size_t>(d)][static_cast<std::size_t>(e)];
            if (w == dcomplex{0.0, 0.0}) continue;
            for (int c = 0; c < kColors; ++c) phi.s[d].c[c] += cmul(w, psi.s[e].c[c]);
          }
        }
        const SU3Matrix<dcomplex> u = view.link(link_l, x, mu);
        for (int d = 0; d < kSpins; ++d) acc.s[d] += matvec(u, phi.s[d]);
      }
    }
    out[x] = acc;
  }
}

void wilson_projected(const GaugeView& view, const NeighborTable& nbr, const WilsonField& in,
                      WilsonField& out) {
  for (std::int64_t x = 0; x < view.sites(); ++x) {
    WilsonSpinor acc{};
    for (int dir = 0; dir < 2; ++dir) {
      const int link_l = dir == 0 ? 0 : 2;
      const int sign = dir == 0 ? +1 : -1;
      for (int mu = 0; mu < kNdim; ++mu) {
        const Projector& p = projector(mu, sign);
        const WilsonSpinor& psi = in[nbr.at(x, mu, link_l)];
        const SU3Matrix<dcomplex> u = view.link(link_l, x, mu);
        // Project + colour-multiply the two independent spin components.
        SU3Vector<dcomplex> g[2];
        for (int s = 0; s < 2; ++s) {
          SU3Vector<dcomplex> h;
          const dcomplex ph = p.phase[static_cast<std::size_t>(s)];
          const int q = p.perm[static_cast<std::size_t>(s)];
          for (int c = 0; c < kColors; ++c) h.c[c] = psi.s[s].c[c] + cmul(ph, psi.s[q].c[c]);
          g[s] = matvec(u, h);
          acc.s[s] += g[s];
        }
        // Reconstruct the dependent lower components.
        for (int s = 0; s < 2; ++s) {
          const dcomplex rp = p.rphase[static_cast<std::size_t>(s)];
          const int rq = p.rperm[static_cast<std::size_t>(s)];
          for (int c = 0; c < kColors; ++c) acc.s[2 + s].c[c] += cmul(rp, g[rq].c[c]);
        }
      }
    }
    out[x] = acc;
  }
}

WilsonDslash::WilsonDslash(const GaugeView& view, const NeighborTable& nbr)
    : gauge_(&view), nbr_(&nbr) {}

WilsonArgs WilsonDslash::make_args(const WilsonField& in, WilsonField& out) const {
  WilsonArgs args;
  args.fwd = gauge_->family(0);
  args.bck = gauge_->family(2);
  args.in = in.data();
  args.out = out.data();
  args.neighbors = nbr_->data();
  args.sites = gauge_->sites();
  return args;
}

minisycl::LaunchSpec wilson_spec(const WilsonArgs& a, int local_size) {
  constexpr auto kLinkBytes =
      static_cast<std::int64_t>(kNdim * kColors * kColors * sizeof(dcomplex));
  constexpr auto kSpinorBytes = static_cast<std::int64_t>(sizeof(WilsonSpinor));
  minisycl::LaunchSpec spec;
  spec.global_size = a.sites;
  spec.local_size = local_size;
  spec.shared_bytes = 0;
  spec.num_phases = 1;
  spec.traits = WilsonDslashKernel::traits();
  spec.regions = {{a.fwd, a.sites * kLinkBytes},
                  {a.bck, a.sites * kLinkBytes},
                  {a.in, a.sites * kSpinorBytes},
                  {a.out, a.sites * kSpinorBytes},
                  {a.neighbors,
                   a.sites * kNeighbors * static_cast<std::int64_t>(sizeof(std::int32_t))}};
  return spec;
}

void WilsonDslash::apply(const WilsonField& in, WilsonField& out, int local_size) const {
  WilsonDslashKernel kernel{make_args(in, out)};
  minisycl::queue q(minisycl::ExecMode::functional, minisycl::QueueOrder::in_order);
  q.submit(wilson_spec(kernel.args, local_size), kernel);
}

gpusim::KernelStats WilsonDslash::profile(const WilsonField& in, WilsonField& out,
                                          int local_size) const {
  WilsonDslashKernel kernel{make_args(in, out)};
  minisycl::queue q(minisycl::ExecMode::profiled, minisycl::QueueOrder::in_order);
  return q.submit(wilson_spec(kernel.args, local_size), kernel,
                  "wilson /" + std::to_string(local_size));
}

ksan::SanitizerReport WilsonDslash::sanitize(const WilsonField& in, WilsonField& out,
                                             int local_size) const {
  WilsonDslashKernel kernel{make_args(in, out)};
  return ksan::sanitize_launch(wilson_spec(kernel.args, local_size), kernel, {},
                               "wilson /" + std::to_string(local_size));
}

}  // namespace milc::wilson
