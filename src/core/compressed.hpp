// compressed.hpp — recon-12 gauge compression for the 3LP-1 strategy.
//
// The paper runs QUDA with compression but notes it is "not a current
// feature of our SYCL implementation" (§IV-D3).  This module implements
// that missing feature (extension experiment X2).  Compression interacts
// non-trivially with row-parallelism: the work-item computing row 2 needs
// *both* stored rows to reconstruct its own (row2 = conj(row0 x row1)), so
// a naive per-thread load would read 12 reals where the uncompressed kernel
// reads 6.  Instead, each (site, k) triplet of work-items stages its link's
// 6 stored complex numbers cooperatively in work-group local memory (2 per
// work-item), synchronises, reconstructs, and multiplies — trading extra
// barriers and local-memory traffic for a 1/3 cut in gauge bytes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/dslash_args.hpp"
#include "core/index_orders.hpp"
#include "gpusim/stats.hpp"
#include "ksan/sanitizer.hpp"
#include "lattice/fields.hpp"
#include "minisycl/queue.hpp"
#include "su3/reconstruct.hpp"

namespace milc {

/// recon-12 device gauge: per link family, 6 complex per (site, k) — the
/// first two rows in column-major order ([j][i], i < 2).
class CompressedGaugeDevice {
 public:
  CompressedGaugeDevice() = default;
  explicit CompressedGaugeDevice(const GaugeView& view);

  [[nodiscard]] const dcomplex* family(int l) const {
    return data_[static_cast<std::size_t>(l)].data();
  }
  [[nodiscard]] std::int64_t sites() const { return sites_; }
  /// Element (i, j) with i < 2 of the family-l link at (s, k) — tests.
  [[nodiscard]] const dcomplex& at(int l, std::int64_t s, int k, int i, int j) const {
    return data_[static_cast<std::size_t>(l)]
                [static_cast<std::size_t>(((s * kNdim + k) * kColors + j) * 2 + i)];
  }

 private:
  std::int64_t sites_ = 0;
  std::array<std::vector<dcomplex>, kNlinks> data_{};
};

/// Kernel arguments for the compressed 3LP-1 kernel.
struct CompressedArgs {
  const dcomplex* links[kNlinks] = {nullptr, nullptr, nullptr, nullptr};
  const SU3Vector<dcomplex>* b = nullptr;
  SU3Vector<dcomplex>* c_out = nullptr;
  const std::int32_t* neighbors = nullptr;
  std::int64_t sites = 0;
};

/// 3LP-1 with recon-12 links, k-major order.  Phase layout (9 phases):
///   2m   (m = l):  cooperative stage of link family l into local memory
///   2m+1        :  reconstruct + row product + accumulate partial
///   8           :  k-reduction, k == 0 work-item writes C(i, s)
/// Local memory per work-item: one partial (16 B) + two staged complex
/// (32 B) = 48 B.
struct Dslash3LP1Recon12Kernel {
  static constexpr int kPhases = 9;
  CompressedArgs args;

  static minisycl::KernelTraits traits() {
    return {.name = "3LP-1 recon-12", .regs_per_thread = 40, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int local_size) {
    return local_size * 3 * static_cast<int>(sizeof(dcomplex));
  }

  template <typename Lane>
  void operator()(Lane& lane, int phase) const;
};

/// The recon-12 kernel's one launch, with its buffers in a fixed order —
/// link families, source, target, neighbour table — for the profiler's
/// canonical address map and ksan's valid memory.
[[nodiscard]] minisycl::LaunchSpec recon12_spec(const CompressedArgs& a, int local_size);

/// Convenience wrapper mirroring FloatDslash: owns the compressed gauge,
/// applies / profiles the kernel.
class CompressedDslash {
 public:
  CompressedDslash(const GaugeView& view, const NeighborTable& nbr);

  void apply(const ColorField& in, ColorField& out, int local_size = 96) const;

  [[nodiscard]] gpusim::KernelStats profile(const ColorField& in, ColorField& out,
                                            int local_size) const;

  /// Replay the kernel under ksan; the launch declares the compressed gauge
  /// extents.
  [[nodiscard]] ksan::SanitizerReport sanitize(const ColorField& in, ColorField& out,
                                               int local_size = 96) const;

  [[nodiscard]] std::int64_t sites() const { return gauge_.sites(); }

 private:
  CompressedArgs make_args(const ColorField& in, ColorField& out) const;
  CompressedGaugeDevice gauge_;
  const NeighborTable* nbr_;
};

// ---------------------------------------------------------------------------
// kernel body
// ---------------------------------------------------------------------------

template <typename Lane>
void Dslash3LP1Recon12Kernel::operator()(Lane& lane, int phase) const {
  using T = complex_traits<dcomplex>;
  const Idx3 id = decode3<Order3::kMajor>(lane.global_id());
  const int lid = lane.local_id();
  const int stage_base = lane.local_range() + 2 * lid;      // staging slots (in dcomplex)
  const int trip_stage = lane.local_range() + 2 * (lid - id.i);  // triplet's 6 slots

  if (phase == 8) {
    // k-reduction, as in the uncompressed 3LP-1 (predicated guard).
    const bool head = id.k == 0;
    const int base = lid - id.k * id.delta_k;
    lane.set_masked(!head);
    dcomplex sum = lane.template shared_load<dcomplex>(base);
    for (int k = 1; k < kNdim; ++k) {
      sum += lane.template shared_load<dcomplex>(base + k * id.delta_k);
    }
    lane.flops(6);
    lane.store(&args.c_out[id.s].c[id.i], sum);
    lane.set_masked(false);
    return;
  }

  const int l = phase / 2;
  if (phase % 2 == 0) {
    // Stage this work-item's 2 of the triplet's 6 stored complex numbers.
    const dcomplex* base = args.links[l] + (id.s * kNdim + id.k) * 6;
    lane.template shared_store<dcomplex>(stage_base + 0, lane.load(&base[2 * id.i + 0]));
    lane.template shared_store<dcomplex>(stage_base + 1, lane.load(&base[2 * id.i + 1]));
    if (l == 0) {
      // First pass also zeroes the partial accumulator (phase-uniform, so
      // warp event streams stay aligned).
      lane.template shared_store<dcomplex>(lid, T::make(0.0, 0.0));
    }
    return;
  }

  // Consume: read the staged rows (uniformly across the triplet), rebuild
  // the third row, and accumulate this work-item's row product.
  dcomplex u0[kColors];  // row 0
  dcomplex u1[kColors];  // row 1
  for (int j = 0; j < kColors; ++j) {
    u0[j] = lane.template shared_load<dcomplex>(trip_stage + 2 * j + 0);
    u1[j] = lane.template shared_load<dcomplex>(trip_stage + 2 * j + 1);
  }
  // row2 = conj(row0 x row1): computed by every lane to keep the warp
  // uniform (hardware would predicate it onto the i == 2 lanes).
  dcomplex u2[kColors];
  u2[0] = cconj(cmul(u0[1], u1[2]) - cmul(u0[2], u1[1]));
  u2[1] = cconj(cmul(u0[2], u1[0]) - cmul(u0[0], u1[2]));
  u2[2] = cconj(cmul(u0[0], u1[1]) - cmul(u0[1], u1[0]));
  lane.flops(static_cast<int>(reconstruct_flops(Reconstruct::k12)));

  const dcomplex* row = id.i == 0 ? u0 : (id.i == 1 ? u1 : u2);
  const std::int32_t n = device::load_neighbor(lane, args.neighbors, id.s, id.k, l);
  dcomplex v = T::make(0.0, 0.0);
  for (int j = 0; j < kColors; ++j) {
    const dcomplex bj = lane.load(&args.b[n].c[j]);
    T::mac(v, row[j], bj);
  }
  lane.flops(22);

  const double sign = kStencilSigns[static_cast<std::size_t>(l)];
  dcomplex acc = lane.template shared_load<dcomplex>(lid);
  acc += T::make(sign * T::real(v), sign * T::imag(v));
  lane.flops(2);
  lane.template shared_store<dcomplex>(lid, acc);
}

}  // namespace milc
