// dispatch.hpp — the one (strategy, order, complex type) -> kernel switch
// and the one description of a Dslash launch.
//
// Every launch mode (profiled, functional, sanitized) and every driver
// (single-device DslashRunner, multi-device shard launches, FloatDslash)
// must run the *identical* kernel object for a given configuration,
// launched with the identical LaunchSpec; this header is the single place
// that instantiates both.  It operates on a raw DslashArgs block rather
// than a DslashProblem so callers can point it at sub-ranges — the multidev
// runner launches the same kernels over a shard's interior and boundary
// site ranges by offsetting the block's base pointers.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/kernels_1lp.hpp"
#include "core/kernels_2lp.hpp"
#include "core/kernels_3lp.hpp"
#include "core/kernels_4lp.hpp"
#include "core/strategy.hpp"
#include "core/variants.hpp"
#include "minisycl/executor.hpp"

namespace milc {

namespace detail_dispatch {

using CplxC = syclcplx::complex<double>;

static_assert(sizeof(CplxC) == sizeof(dcomplex) && alignof(CplxC) == alignof(dcomplex),
              "SyclCPLX complex must be layout-compatible with dcomplex so fields can be "
              "shared between variants");

/// Reinterpret the argument block for the SyclCPLX-typed kernels.  Both
/// complex types are trivially-copyable pairs of doubles and every kernel
/// access goes through Lane::load/store (memcpy semantics), so this is
/// well-defined.
inline DslashArgs<CplxC> to_cplx(const DslashArgs<dcomplex>& a) {
  DslashArgs<CplxC> r;
  for (int l = 0; l < kNlinks; ++l) {
    r.links[l] = reinterpret_cast<const CplxC*>(a.links[l]);
  }
  r.b = reinterpret_cast<const SU3Vector<CplxC>*>(a.b);
  r.c_out = reinterpret_cast<SU3Vector<CplxC>*>(a.c_out);
  r.neighbors = a.neighbors;
  r.sites = a.sites;
  return r;
}

}  // namespace detail_dispatch

/// Instantiate the kernel selected by (strategy, order, complex type) and
/// hand it to `fn`.  The SyclCPLX variant exists for 3LP-1 only, matching
/// the paper.  Local-size validation is the caller's job (the rules depend
/// on the launch's site count, which only the caller knows).
template <typename Fn>
auto with_dslash_kernel(const DslashArgs<dcomplex>& a, Strategy s, IndexOrder o,
                        bool use_syclcplx, Fn&& fn) {
  if (use_syclcplx) {
    if (s != Strategy::LP3_1) {
      throw std::invalid_argument("the SyclCPLX variant exists for 3LP-1 only (paper IV-C)");
    }
    const DslashArgs<detail_dispatch::CplxC> ac = detail_dispatch::to_cplx(a);
    if (o == IndexOrder::kMajor) {
      return fn(Dslash3LP1Kernel<Order3::kMajor, detail_dispatch::CplxC>{.args = ac});
    }
    return fn(Dslash3LP1Kernel<Order3::iMajor, detail_dispatch::CplxC>{.args = ac});
  }

  switch (s) {
    case Strategy::LP1:
      return fn(Dslash1LPKernel<dcomplex>{.args = a});
    case Strategy::LP2:
      return fn(Dslash2LPKernel<dcomplex>{.args = a});
    case Strategy::LP3_1:
      if (o == IndexOrder::kMajor) return fn(Dslash3LP1Kernel<Order3::kMajor>{.args = a});
      return fn(Dslash3LP1Kernel<Order3::iMajor>{.args = a});
    case Strategy::LP3_2:
      if (o == IndexOrder::kMajor) return fn(Dslash3LP2Kernel<Order3::kMajor>{.args = a});
      return fn(Dslash3LP2Kernel<Order3::iMajor>{.args = a});
    case Strategy::LP3_3:
      if (o == IndexOrder::kMajor) return fn(Dslash3LP3Kernel<Order3::kMajor>{.args = a});
      return fn(Dslash3LP3Kernel<Order3::iMajor>{.args = a});
    case Strategy::LP4_1:
      if (o == IndexOrder::kMajor) return fn(Dslash4LPKernel<Order4::lp1_kMajor>{.args = a});
      return fn(Dslash4LPKernel<Order4::lp1_iMajor>{.args = a});
    case Strategy::LP4_2:
      if (o == IndexOrder::lMajor) return fn(Dslash4LPKernel<Order4::lp2_lMajor>{.args = a});
      return fn(Dslash4LPKernel<Order4::lp2_iMajor>{.args = a});
  }
  throw std::logic_error("unknown strategy");
}

/// A Dslash launch's buffers in a fixed order — gauge links, source, target,
/// neighbour table — for the profiler's canonical address map (see
/// minisycl::AddressRegion) and ksan's valid memory: timing becomes a pure
/// function of the launch, independent of where the heap put the fields,
/// which the tuning cache's bit-for-bit replay rule needs.  `src_sites` is
/// the source field's extent: `a.sites` on one device; on a shard its
/// extended_sources(), because neighbour indices can reach any ghost slot.
template <ComplexScalar C>
std::vector<minisycl::AddressRegion> dslash_regions(const DslashArgs<C>& a,
                                                    std::int64_t src_sites) {
  constexpr auto kVectorBytes = static_cast<std::int64_t>(sizeof(SU3Vector<C>));
  std::vector<minisycl::AddressRegion> regions;
  for (int l = 0; l < kNlinks; ++l) {
    regions.push_back(
        {a.links[l], a.sites * kNdim * kColors * kColors * static_cast<std::int64_t>(sizeof(C))});
  }
  regions.push_back({a.b, src_sites * kVectorBytes});
  regions.push_back({a.c_out, a.sites * kVectorBytes});
  regions.push_back(
      {a.neighbors, a.sites * kNeighbors * static_cast<std::int64_t>(sizeof(std::int32_t))});
  return regions;
}

/// The launch of Dslash kernel `K` (strategy `s`) over `a`'s target sites:
/// the strategy's work-items per site, K's local memory, phases and traits
/// — with the variant's codegen slowdown when `vi` is given — and
/// dslash_regions(a, src_sites).  DslashRunner, the shard launches and
/// FloatDslash all launch from it.
template <typename K, ComplexScalar C>
minisycl::LaunchSpec dslash_launch(const DslashArgs<C>& a, std::int64_t src_sites, Strategy s,
                                   int local_size, const VariantInfo* vi = nullptr) {
  minisycl::LaunchSpec spec;
  spec.global_size = a.sites * items_per_site(s);
  spec.local_size = local_size;
  spec.shared_bytes = K::shared_bytes(local_size);
  spec.num_phases = K::kPhases;
  spec.traits = K::traits();
  if (vi != nullptr) spec.traits.codegen_slowdown = vi->codegen_slowdown;
  spec.regions = dslash_regions(a, src_sites);
  return spec;
}

}  // namespace milc
