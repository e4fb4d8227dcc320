// bench_wilson — extension experiment X3: Wilson vs staggered arithmetic
// intensity.  The paper's introduction explains why staggered fermions make
// memory traffic the battleground: "the arithmetic intensity of staggered
// quarks is low compared to the other two formulations".  This bench puts
// numbers on that: the Wilson hopping operator (8-point stencil, 4 spins,
// half-spinor projection) against the staggered operator (16-point stencil,
// 1 colour vector) on the same lattice and simulated device.
#include "bench_common.hpp"
#include "wilson/wilson.hpp"

using namespace milc;
using namespace milc::bench;

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  DslashProblem problem(opt.L, opt.seed);
  DslashRunner runner;
  print_header("Wilson vs staggered arithmetic intensity (extension X3)", opt,
               problem.sites());

  // Staggered: the paper's best AoS kernel (3LP-1 k-major, local 768).
  RunRequest req{.strategy = Strategy::LP3_1,
                 .order = IndexOrder::kMajor,
                 .local_size = 768,
                 .variant = Variant::SYCL};
  const RunResult stag = runner.run(problem, req);

  // Wilson: site-per-thread kernel on the same gauge links.
  wilson::WilsonField win(problem.geom(), opposite(problem.target_parity()));
  win.fill_random(opt.seed + 1);
  wilson::WilsonField wout(problem.geom(), problem.target_parity());
  wilson::WilsonDslash wd(problem.view(), problem.neighbors());
  const auto wstats = wd.profile(win, wout, 128);

  const double wilson_flops =
      wilson::wilson_flops_per_site() * static_cast<double>(problem.sites());
  const double w_gflops = wilson_flops / (wstats.duration_us * 1e-6) / 1e9;
  const double s_gflops = problem.flops() / (stag.kernel_us * 1e-6) / 1e9;

  const double w_bytes = static_cast<double>(wstats.counters.dram_sectors) * 32.0;
  const double s_bytes = static_cast<double>(stag.stats.counters.dram_sectors) * 32.0;

  std::printf("\n%-28s %12s %12s %14s %12s %10s\n", "operator", "FLOP/site", "GF/s",
              "DRAM bytes/site", "FLOP/byte", "occ%");
  std::printf("%-28s %12.0f %12.1f %14.0f %12.2f %9.1f%%\n", "staggered 3LP-1 (16-pt)",
              kFlopsPerSite, s_gflops, s_bytes / static_cast<double>(problem.sites()),
              problem.flops() / s_bytes, 100.0 * stag.stats.occupancy.achieved);
  std::printf("%-28s %12.0f %12.1f %14.0f %12.2f %9.1f%%\n", "wilson site/thread (8-pt)",
              wilson::wilson_flops_per_site(), w_gflops,
              w_bytes / static_cast<double>(problem.sites()), wilson_flops / w_bytes,
              100.0 * wstats.occupancy.achieved);

  std::printf("\nintensity ratio (wilson/staggered): %.2fx   (intro: staggered is the\n"
              "low-intensity formulation, hence the paper's focus on memory traffic)\n",
              (wilson_flops / w_bytes) / (problem.flops() / s_bytes));
  std::printf("note: the Wilson site-per-thread kernel is register-bound (whole-spinor\n"
              "accumulators), so its occupancy sits below the staggered row kernels —\n"
              "the same trade-off the paper's 1LP/QUDA analysis exposes.\n");
  return 0;
}
