// bench_quda_recon — experiments E3 and A2: QUDA's staggered_dslash_test
// gauge-compression ladder (recon 18/12/9 -> 634/728/825 GFLOP/s in the
// paper) and the traffic-vs-recompute ablation behind it.
#include <algorithm>

#include "bench_common.hpp"
#include "qudaref/staggered_test.hpp"
#include "tune/candidates.hpp"

using namespace milc;
using namespace milc::bench;

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  DslashProblem problem(opt.L, opt.seed);
  // The tuner's pool: powers of two from 64 that divide the sites.  When one
  // does, 64 does too, so A2 below always finds a size at or under 256.
  const std::vector<int> sizes = tune::quda_tuning_candidates(problem.sites());
  if (sizes.empty()) no_local_size(argv[0], "QUDA staggered_dslash_test", problem.sites());
  print_header("QUDA staggered_dslash_test — gauge compression ladder", opt, problem.sites());

  qudaref::StaggeredDslashTest test(problem);

  std::printf("\n%-10s %10s %12s %12s %14s %14s %10s\n", "scheme", "local", "kernel_us",
              "GF/s (nom)", "L1 tags", "DRAM sectors", "FLOP/site");
  qudaref::StaggeredResult r18;
  std::vector<qudaref::StaggeredResult> results;
  for (Reconstruct scheme : {Reconstruct::k18, Reconstruct::k12, Reconstruct::k9}) {
    const auto r = test.run(scheme);
    if (scheme == Reconstruct::k18) r18 = r;
    results.push_back(r);
    std::printf("%-10s %10d %12.1f %12.1f %14.1fM %14.1fM %10.0f\n", to_string(scheme),
                r.local_size, r.kernel_us, r.gflops,
                static_cast<double>(r.stats.counters.l1_tag_requests_global) / 1e6,
                static_cast<double>(r.stats.counters.dram_sectors) / 1e6,
                static_cast<double>(r.stats.counters.flops) /
                    static_cast<double>(problem.sites()));
  }

  std::printf("\nLadder vs paper (shape):\n");
  std::printf("  paper: 634 -> 728 -> 825 GF/s (x1.00 -> x1.15 -> x1.30)\n");
  std::printf("  ours : %.0f -> %.0f -> %.0f GF/s (x1.00 -> x%.2f -> x%.2f)\n",
              results[0].gflops, results[1].gflops, results[2].gflops,
              results[1].gflops / results[0].gflops, results[2].gflops / results[0].gflops);

  // -- A2: per-scheme trade-off across fixed launch configs --------------------
  // Local 256, or the largest tuner candidate below it that divides the
  // sites.
  const int local = *std::prev(std::upper_bound(sizes.begin(), sizes.end(), 256));
  std::printf("\nAblation A2 — traffic saved vs reconstruction FLOPs (local %d):\n", local);
  std::printf("%-10s %16s %18s %14s\n", "scheme", "gauge B/site", "recon FLOP/link",
              "kernel_us");
  for (Reconstruct scheme : {Reconstruct::k18, Reconstruct::k12, Reconstruct::k9}) {
    const auto r = test.run_at(scheme, local);
    std::printf("%-10s %16d %18.0f %14.1f\n", to_string(scheme),
                16 * 8 * reals_per_link(scheme), reconstruct_flops(scheme), r.kernel_us);
  }
  return 0;
}
