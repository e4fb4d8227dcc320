// bench_precision — extension experiment X1: single vs double precision for
// the memory-bound 3LP-1 kernel.  QUDA's mixed-precision solvers exist
// because halving the word size roughly halves the traffic of a bandwidth-
// bound operator; this bench quantifies that on the simulated A100.
#include "bench_common.hpp"
#include "core/precision.hpp"

using namespace milc;
using namespace milc::bench;

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  DslashProblem problem(opt.L, opt.seed);
  DslashRunner runner;
  print_header("Precision ablation: double vs float 3LP-1 (extension X1)", opt,
               problem.sites());

  FloatDslash fd(problem.view(), problem.neighbors());
  FloatColorField fin(problem.b()), fout(problem.geom(), problem.target_parity());

  std::printf("\n%-22s %10s %12s %14s %14s %10s\n", "kernel", "GF/s", "kernel_us", "L1 tags",
              "DRAM sectors", "occ%");
  for (int ls : paper_local_sizes(Strategy::LP3_1, IndexOrder::kMajor, problem.sites())) {
    RunRequest req{.strategy = Strategy::LP3_1,
                   .order = IndexOrder::kMajor,
                   .local_size = ls,
                   .variant = Variant::SYCL};
    const RunResult d = runner.run(problem, req);
    const auto f = fd.profile(fin, fout, ls);
    // Kernel-only GFLOP/s for both precisions (same convention).
    const double d_gflops = problem.flops() / (d.kernel_us * 1e-6) / 1e9;
    const double f_gflops = problem.flops() / (f.duration_us * 1e-6) / 1e9;
    std::printf("%-22s %10.1f %12.1f %13.1fM %13.1fM %9.1f%%\n",
                ("double 3LP-1 /" + std::to_string(ls)).c_str(), d_gflops, d.kernel_us,
                static_cast<double>(d.stats.counters.l1_tag_requests_global) / 1e6,
                static_cast<double>(d.stats.counters.dram_sectors) / 1e6,
                100.0 * d.stats.occupancy.achieved);
    std::printf("%-22s %10.1f %12.1f %13.1fM %13.1fM %9.1f%%   (x%.2f)\n",
                ("float  3LP-1 /" + std::to_string(ls)).c_str(), f_gflops, f.duration_us,
                static_cast<double>(f.counters.l1_tag_requests_global) / 1e6,
                static_cast<double>(f.counters.dram_sectors) / 1e6,
                100.0 * f.occupancy.achieved, d.kernel_us / f.duration_us);
  }

  std::printf("\nexpectation: the float kernel moves ~half the bytes, so a bandwidth-\n"
              "bound operator approaches a 2x speed-up — the headroom mixed-precision\n"
              "solvers exploit (QUDA feature cited in paper I and IV-D3).\n");
  return 0;
}
