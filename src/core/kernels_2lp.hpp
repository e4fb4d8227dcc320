// kernels_2lp.hpp — Two-loop Parallelism (paper §III-B).
//
// Three work-items per target site (one per matrix row i); each performs
// |l| x |k| row products.  Iterations remain independent: no shared state,
// no barrier.
#pragma once

#include "core/dslash_args.hpp"
#include "core/index_orders.hpp"
#include "minisycl/traits.hpp"

namespace milc {

template <ComplexScalar C = dcomplex>
struct Dslash2LPKernel {
  static constexpr int kPhases = 1;
  DslashArgs<C> args;

  static minisycl::KernelTraits traits() {
    return {.name = "2LP", .regs_per_thread = 40, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int /*local_size*/) { return 0; }

  template <typename Lane>
  void operator()(Lane& lane, int /*phase*/) const {
    using T = complex_traits<C>;
    const std::int64_t gid = lane.global_id();
    const std::int64_t s = gid / kNrow;  // int s = global_id / nrow;
    const int i = static_cast<int>(gid % kNrow);  // int i = global_id % nrow;

    C acc = T::make(0.0, 0.0);
    for (int l = 0; l < kNlinks; ++l) {
      for (int k = 0; k < kNdim; ++k) {
        const std::int32_t n = device::load_neighbor(lane, args.neighbors, s, k, l);
        const C v = device::row_dot(lane, args, l, s, k, i, &args.b[n]);
        device::accumulate_signed(lane, acc, kStencilSigns[static_cast<std::size_t>(l)], v);
      }
    }
    lane.store(&args.c_out[s].c[i], acc);
  }
};

}  // namespace milc
