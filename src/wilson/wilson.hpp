// wilson.hpp — the Wilson-fermion Dslash operator.
//
// The paper's introduction motivates the staggered study by contrast with
// the Wilson formulation: "four spin-components at each site, each of which
// is an SU(3) color vector. The stencil involves eight neighbor sites" —
// and a correspondingly *higher arithmetic intensity*, which is exactly why
// staggered needs the careful memory-traffic treatment the paper performs.
// This module implements the Wilson hopping operator
//
//   D psi(x) = sum_mu [ U_mu(x) (1 - gamma_mu) psi(x+mu)
//                     + U_mu(x-mu)^dag (1 + gamma_mu) psi(x-mu) ]
//
// three ways: a full-gamma-algebra reference, a half-spinor projected host
// implementation, and a site-per-thread device kernel runnable on the
// simulated A100 — enabling the staggered-vs-Wilson arithmetic-intensity
// comparison (extension experiment X3, bench_wilson).
//
// The gauge field reuses the "fat" link family of a GaugeConfiguration and
// the l = 0 / l = 2 slots of the gathered GaugeView (forward links and
// gathered backward adjoints at distance 1).
#pragma once

#include <cstdint>
#include <vector>

#include "core/dslash_args.hpp"
#include "gpusim/stats.hpp"
#include "ksan/sanitizer.hpp"
#include "lattice/fields.hpp"
#include "minisycl/queue.hpp"
#include "wilson/gamma.hpp"

namespace milc::wilson {

/// A Wilson spinor: four spin components, each an SU(3) colour vector
/// (12 complex, 192 bytes).
struct WilsonSpinor {
  SU3Vector<dcomplex> s[kSpins];

  WilsonSpinor& operator+=(const WilsonSpinor& o) {
    for (int d = 0; d < kSpins; ++d) s[d] += o.s[d];
    return *this;
  }
};

/// A spinor field resident on one parity.
class WilsonField {
 public:
  WilsonField() = default;
  WilsonField(const LatticeGeom& geom, Parity p)
      : parity_(p), data_(static_cast<std::size_t>(geom.half_volume())) {}

  [[nodiscard]] Parity parity() const { return parity_; }
  [[nodiscard]] std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }
  [[nodiscard]] WilsonSpinor& operator[](std::int64_t i) {
    return data_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const WilsonSpinor& operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] WilsonSpinor* data() { return data_.data(); }
  [[nodiscard]] const WilsonSpinor* data() const { return data_.data(); }

  void zero();
  void fill_random(std::uint64_t seed);

 private:
  Parity parity_ = Parity::Even;
  std::vector<WilsonSpinor> data_;
};

[[nodiscard]] double norm2(const WilsonField& f);
[[nodiscard]] double max_abs_diff(const WilsonField& a, const WilsonField& b);
/// <a, b> with the spin-colour Hermitian inner product.
[[nodiscard]] dcomplex dot(const WilsonField& a, const WilsonField& b);
/// b -> gamma5 b (diagonal in the DeGrand–Rossi basis).
void apply_gamma5(WilsonField& f);

/// Reference Dslash via the full 4x4 gamma algebra (slow, obviously right).
void wilson_reference(const GaugeView& view, const NeighborTable& nbr, const WilsonField& in,
                      WilsonField& out);

/// Host implementation using the rank-2 projector trick — must agree with
/// wilson_reference bit-for-bit up to rounding.
void wilson_projected(const GaugeView& view, const NeighborTable& nbr, const WilsonField& in,
                      WilsonField& out);

/// FLOPs per site under the same counting style as the staggered operator:
/// 8 hops x (2 projections + 2 SU(3) mat-vecs + 2 reconstructions + 4
/// accumulates).
[[nodiscard]] double wilson_flops_per_site();

/// Kernel arguments for the device kernel.
struct WilsonArgs {
  const dcomplex* fwd = nullptr;   ///< GaugeView family 0 ([s][k][j][i])
  const dcomplex* bck = nullptr;   ///< family 2 (gathered adjoints)
  const WilsonSpinor* in = nullptr;
  WilsonSpinor* out = nullptr;
  const std::int32_t* neighbors = nullptr;  ///< NeighborTable layout
  std::int64_t sites = 0;
};

/// Site-per-thread Wilson Dslash kernel (the Wilson analogue of 1LP; the
/// higher arithmetic intensity is the point of the comparison).
struct WilsonDslashKernel {
  static constexpr int kPhases = 1;
  WilsonArgs args;

  static minisycl::KernelTraits traits() {
    // A whole site keeps 12 complex accumulators live: heavier than 1LP.
    return {.name = "wilson-dslash", .regs_per_thread = 96, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int) { return 0; }

  template <typename Lane>
  void operator()(Lane& lane, int phase) const;
};

/// The Wilson kernel's one launch, with its buffers in a fixed order —
/// forward links, backward links, source, target, neighbour table — for
/// the profiler's canonical address map and ksan's valid memory.
[[nodiscard]] minisycl::LaunchSpec wilson_spec(const WilsonArgs& a, int local_size);

/// Owner/driver mirroring FloatDslash / CompressedDslash.
class WilsonDslash {
 public:
  WilsonDslash(const GaugeView& view, const NeighborTable& nbr);

  void apply(const WilsonField& in, WilsonField& out, int local_size = 128) const;
  [[nodiscard]] gpusim::KernelStats profile(const WilsonField& in, WilsonField& out,
                                            int local_size) const;
  /// Replay the kernel under ksan; the launch declares the gauge/spinor
  /// extents.
  [[nodiscard]] ksan::SanitizerReport sanitize(const WilsonField& in, WilsonField& out,
                                               int local_size = 128) const;
  [[nodiscard]] std::int64_t sites() const { return gauge_->sites(); }

 private:
  WilsonArgs make_args(const WilsonField& in, WilsonField& out) const;
  const GaugeView* gauge_;
  const NeighborTable* nbr_;
};

// ---------------------------------------------------------------------------
// device kernel body
// ---------------------------------------------------------------------------

template <typename Lane>
void WilsonDslashKernel::operator()(Lane& lane, int /*phase*/) const {
  using T = complex_traits<dcomplex>;
  const std::int64_t x = lane.global_id();

  SU3Vector<dcomplex> acc[kSpins];
  for (int dir = 0; dir < 2; ++dir) {       // 0: forward (+mu), 1: backward (-mu)
    const int link_l = dir == 0 ? 0 : 2;    // stencil slot: +1 or -1 hop
    const dcomplex* gauge = dir == 0 ? args.fwd : args.bck;
    const int sign = dir == 0 ? +1 : -1;    // (1 - gamma) fwd, (1 + gamma) bwd
    for (int mu = 0; mu < kNdim; ++mu) {
      const Projector& p = projector(mu, sign);
      const std::int32_t n = device::load_neighbor(lane, args.neighbors, x, mu, link_l);
      const WilsonSpinor* psi = &args.in[n];

      // Project: h_s = psi_s + phase[s] * psi[perm[s]]  (s = 0, 1).
      SU3Vector<dcomplex> h[2];
      for (int s = 0; s < 2; ++s) {
        const dcomplex ph = p.phase[static_cast<std::size_t>(s)];
        const int q = p.perm[static_cast<std::size_t>(s)];
        for (int c = 0; c < kColors; ++c) {
          const dcomplex a = lane.load(&psi->s[s].c[c]);
          const dcomplex b = lane.load(&psi->s[q].c[c]);
          h[s].c[c] = a + cmul(ph, b);
        }
        lane.flops(3 * 8);
      }

      // Colour multiply: g_s = U h_s (two SU(3) mat-vecs instead of four).
      SU3Vector<dcomplex> g[2];
      for (int s = 0; s < 2; ++s) {
        for (int i = 0; i < kColors; ++i) {
          dcomplex v = T::make(0.0, 0.0);
          for (int j = 0; j < kColors; ++j) {
            const dcomplex u = lane.load(&gauge[((x * kNdim + mu) * kColors + j) * kColors + i]);
            T::mac(v, u, h[s].c[j]);
          }
          g[s].c[i] = v;
        }
        lane.flops(66);
      }

      // Accumulate: out_s += g_s; out_{2+s} += rphase[s] * g[rperm[s]].
      for (int s = 0; s < 2; ++s) {
        acc[s] += g[s];
        const dcomplex rp = p.rphase[static_cast<std::size_t>(s)];
        const int rq = p.rperm[static_cast<std::size_t>(s)];
        for (int c = 0; c < kColors; ++c) acc[2 + s].c[c] += cmul(rp, g[rq].c[c]);
        lane.flops(3 * 8 + 3 * 2);
      }
    }
  }

  for (int d = 0; d < kSpins; ++d) {
    for (int c = 0; c < kColors; ++c) lane.store(&args.out[x].s[d].c[c], acc[d].c[c]);
  }
}

}  // namespace milc::wilson
