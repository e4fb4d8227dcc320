// Mini-CUDA runtime and the CUDA 3LP-1 port.
#include <gtest/gtest.h>

#include "core/dslash_ref.hpp"
#include "core/problem.hpp"
#include "cudacompat/cuda_dslash_3lp1.hpp"

namespace cudacompat {
namespace {

struct BuiltinsProbe {
  static constexpr int kPhases = 1;
  int* tid_out;
  int* bid_out;
  int* bdim_out;

  static minisycl::KernelTraits traits() { return {.name = "probe"}; }

  template <typename Lane>
  void operator()(ThreadCtx<Lane>& ctx, int) const {
    const int g = static_cast<int>(ctx.blockIdx.x * ctx.blockDim.x + ctx.threadIdx.x);
    ctx.store(&tid_out[g], static_cast<int>(ctx.threadIdx.x));
    ctx.store(&bid_out[g], static_cast<int>(ctx.blockIdx.x));
    ctx.store(&bdim_out[g], static_cast<int>(ctx.blockDim.x));
  }
};

TEST(CudaCompat, BuiltinsMatchLaunchGeometry) {
  constexpr int kGrid = 4, kBlock = 64;
  std::vector<int> tid(kGrid * kBlock), bid(kGrid * kBlock), bdim(kGrid * kBlock);
  Stream stream(minisycl::ExecMode::functional);
  stream.launch(dim3(kGrid), dim3(kBlock), 0,
                BuiltinsProbe{tid.data(), bid.data(), bdim.data()});
  for (int g = 0; g < kGrid * kBlock; ++g) {
    EXPECT_EQ(tid[static_cast<std::size_t>(g)], g % kBlock);
    EXPECT_EQ(bid[static_cast<std::size_t>(g)], g / kBlock);
    EXPECT_EQ(bdim[static_cast<std::size_t>(g)], kBlock);
  }
}

TEST(CudaCompat, StreamsAreInOrder) {
  Stream stream(minisycl::ExecMode::functional);
  EXPECT_EQ(stream.queue().order(), minisycl::QueueOrder::in_order);
  EXPECT_LT(stream.queue().launch_overhead_us(),
            gpusim::kCalibration.launch_overhead_out_of_order_us);
}

TEST(CudaCompat, MallocFreeRoundTrip) {
  double* p = cuda_malloc<double>(128);
  ASSERT_NE(p, nullptr);
  p[0] = 1.0;
  p[127] = 2.0;
  EXPECT_EQ(p[64], 0.0);  // zero-initialised
  cuda_free(p);
}

TEST(CudaDslash, MatchesReference) {
  milc::DslashProblem p(4, 61);
  const auto args = p.args();
  CudaDslash3LP1 kernel{args};

  const unsigned block = 96;
  const unsigned grid = static_cast<unsigned>(p.sites() * 12 / block);
  Stream stream(minisycl::ExecMode::functional);
  stream.launch(dim3(grid), dim3(block), CudaDslash3LP1::shared_bytes(static_cast<int>(block)),
                kernel);

  milc::ColorField ref(p.geom(), p.target_parity());
  milc::dslash_reference(p.view(), p.neighbors(), p.b(), ref);
  EXPECT_LT(milc::max_abs_diff(p.c(), ref), 1e-10);
}

TEST(CudaDslash, ProfiledMatchesSyclKernelStructure) {
  milc::DslashProblem p(4, 62);
  const auto args = p.args();
  CudaDslash3LP1 kernel{args};
  Stream stream(minisycl::ExecMode::profiled);
  const auto st = stream.launch(dim3(static_cast<unsigned>(p.sites() * 12 / 96)), dim3(96),
                                CudaDslash3LP1::shared_bytes(96), kernel, "cuda-3lp1");
  EXPECT_GT(st.duration_us, 0.0);
  EXPECT_EQ(st.launch.num_phases, 2);
  EXPECT_GT(st.counters.shared_wavefronts, 0u);  // uses local memory like 3LP-1
  EXPECT_EQ(st.counters.divergent_branches, 0u);
  EXPECT_EQ(st.name, "cuda-3lp1");
}

TEST(CudaDslash, SourceCorpusContainsTheCanonicalPatterns) {
  const std::string src = kCuda3LP1Source;
  EXPECT_NE(src.find("__global__"), std::string::npos);
  EXPECT_NE(src.find("__shared__"), std::string::npos);
  EXPECT_NE(src.find("__syncthreads()"), std::string::npos);
  EXPECT_NE(src.find("blockIdx.x * blockDim.x + threadIdx.x"), std::string::npos);
  EXPECT_NE(src.find("<<<grid, block>>>"), std::string::npos);
  EXPECT_NE(src.find("cudaMalloc"), std::string::npos);
}

}  // namespace
}  // namespace cudacompat
