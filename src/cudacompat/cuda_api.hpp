// cuda_api.hpp — a miniature CUDA runtime on top of the simulator.
//
// The paper's §IV-C item 2 ports 3LP-1 to CUDA to compare toolchains; this
// header provides just enough of the CUDA programming model to express that
// kernel natively: dim3 launches, in-order streams (CUDA semantics), and a
// per-thread context exposing threadIdx/blockIdx/blockDim.  __syncthreads()
// maps to the executor's phase boundary exactly like SYCL's group_barrier.
#pragma once

#include <cstdint>
#include <string>

#include "minisycl/queue.hpp"

namespace cudacompat {

struct dim3 {
  unsigned x = 1;
  unsigned y = 1;
  unsigned z = 1;
  constexpr dim3() = default;
  constexpr dim3(unsigned x_, unsigned y_ = 1, unsigned z_ = 1) : x(x_), y(y_), z(z_) {}
};

struct uint1d {
  unsigned x = 0;
};

/// Thread-view of a kernel launch: CUDA built-ins + lane-mediated memory
/// access.  Kernels are templates over the underlying Lane, like SYCL ones.
template <typename Lane>
class ThreadCtx {
 public:
  ThreadCtx(Lane& lane, const dim3& grid, const dim3& block) : lane_(lane) {
    threadIdx.x = static_cast<unsigned>(lane.local_id());
    blockIdx.x = static_cast<unsigned>(lane.group_id());
    blockDim.x = block.x;
    gridDim.x = grid.x;
  }

  uint1d threadIdx, blockIdx, blockDim, gridDim;

  [[nodiscard]] Lane& lane() { return lane_; }

  template <typename T>
  [[nodiscard]] T load(const T* p) {
    return lane_.load(p);
  }
  template <typename T>
  void store(T* p, const T& v) {
    lane_.store(p, v);
  }
  void atomicAdd(double* p, double v) { lane_.atomic_add(p, v); }
  template <typename T>
  [[nodiscard]] T shared_load(int idx) {
    return lane_.template shared_load<T>(idx);
  }
  template <typename T>
  void shared_store(int idx, const T& v) {
    lane_.template shared_store<T>(idx, v);
  }

 private:
  Lane& lane_;
};

/// CUDA stream: always in-order (the property the paper credits for the
/// SYCLomatic/CUDA launch-overhead advantage, §IV-D6).
class Stream {
 public:
  explicit Stream(minisycl::ExecMode mode = minisycl::ExecMode::profiled)
      : queue_(mode, minisycl::QueueOrder::in_order) {}

  [[nodiscard]] minisycl::queue& queue() { return queue_; }

  /// kernel<<<grid, block, shared_bytes, stream>>>(...) equivalent.
  /// The kernel type provides kPhases, traits() and
  /// operator()(ThreadCtx<Lane>&, int phase).  Like a CUDA launch it knows
  /// no buffers, so its spec declares none: the one profiled launch whose
  /// simulated time still sees raw heap addresses (ARCHITECTURE.md
  /// invariant 3).  It serves the CUDA-port tests only.
  template <typename Kernel>
  gpusim::KernelStats launch(const dim3& grid, const dim3& block, int shared_bytes,
                             const Kernel& kernel, std::string name = {}) {
    minisycl::LaunchSpec spec;
    spec.global_size = static_cast<std::int64_t>(grid.x) * block.x;
    spec.local_size = static_cast<int>(block.x);
    spec.shared_bytes = shared_bytes;
    spec.num_phases = Kernel::kPhases;
    spec.traits = Kernel::traits();
    auto wrapper = [&kernel, grid, block](auto& lane, int phase) {
      ThreadCtx<std::decay_t<decltype(lane)>> ctx(lane, grid, block);
      kernel(ctx, phase);
    };
    return queue_.submit(spec, wrapper, std::move(name));
  }

 private:
  minisycl::queue queue_;
};

/// cudaMalloc / cudaFree stand-ins (host memory doubles as device memory in
/// the simulator; the region still goes through the normal access tracing).
template <typename T>
[[nodiscard]] T* cuda_malloc(std::size_t count) {
  return new T[count]();
}
template <typename T>
void cuda_free(T* p) {
  delete[] p;
}

}  // namespace cudacompat
