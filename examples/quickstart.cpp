// quickstart — the five-minute tour: build a random gauge problem, apply the
// MILC-Dslash operator with the flagship 3LP-1 strategy, check the result
// against the serial reference, and profile the same kernel on the simulated
// A100.
//
//   ./examples/quickstart [--L 16]
#include <cstdio>
#include <iostream>

#include "cli.hpp"
#include "core/dslash_ref.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"
#include "gpusim/profiler.hpp"
#include "minisycl/device.hpp"

int main(int argc, char** argv) {
  using namespace milc;
  int L = 8;
  examples::parse_flags(argc, argv, {{"--L", L, 2}});

  // 1. The simulated device.
  minisycl::device dev;
  std::printf("device: %s\n", dev.name().c_str());
  std::printf("  compute units=%d  max work-group=%d  warp=%d  local mem=%lld KB\n\n",
              dev.max_compute_units(), dev.max_work_group_size(), dev.sub_group_size(),
              static_cast<long long>(dev.local_mem_size() / 1024));

  // 2. A Dslash problem: L^4 lattice, random SU(3) gauge field, random source.
  DslashProblem problem(L, /*seed=*/42);
  std::printf("lattice %d^4: %lld target sites, %.1f MFLOP per Dslash\n\n", L,
              static_cast<long long>(problem.sites()), problem.flops() / 1e6);

  // 3. Apply C = Dslash x B with the paper's best strategy (3LP-1, k-major).
  DslashRunner runner;
  runner.run_functional(problem, Strategy::LP3_1, IndexOrder::kMajor, /*local=*/96);
  std::printf("applied 3LP-1: |C|^2 = %.6f\n", norm2(problem.c()));

  // 4. Verify against the serial reference implementation of eq. (1).
  ColorField ref(problem.geom(), problem.target_parity());
  dslash_reference(problem.view(), problem.neighbors(), problem.b(), ref);
  std::printf("max |kernel - reference| = %.3e\n\n", max_abs_diff(problem.c(), ref));

  // 5. Profile the kernel on the simulated A100 (Nsight-style record).
  RunRequest req{.strategy = Strategy::LP3_1,
                 .order = IndexOrder::kMajor,
                 .local_size = 96,
                 .variant = Variant::SYCL};
  const RunResult r = runner.run(problem, req);
  std::printf("profiled %s: %.1f GFLOP/s (kernel %.1f us)\n\n", r.label.c_str(), r.gflops,
              r.kernel_us);
  gpusim::print_kernel_report(std::cout, r.stats);
  return 0;
}
