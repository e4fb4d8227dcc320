// autotune_explorer — a QUDA-style autotuner over the whole strategy space:
// sweeps every (strategy, index order, local size) configuration on the
// simulated A100, ranks them, and reports the tuned winner — the decision
// the paper makes by hand in §IV.
//
//   ./examples/autotune_explorer [--L 12] [--top 10]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "cli.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"

using namespace milc;

int main(int argc, char** argv) {
  int L = 12, top = 10;
  examples::parse_flags(argc, argv, {{"--L", L, 2}, {"--top", top, 1}});

  DslashProblem problem(L, 123);
  DslashRunner runner;
  std::printf("autotuning MILC-Dslash on %d^4 (%lld sites)...\n", L,
              static_cast<long long>(problem.sites()));

  std::vector<RunResult> results;
  int tried = 0, skipped = 0;
  for (Strategy s : all_strategies()) {
    for (IndexOrder o : orders_of(s)) {
      for (int ls : {32, 64, 96, 128, 192, 256, 384, 512, 768, 1024}) {
        if (!is_valid_local_size(s, o, ls, problem.sites())) {
          ++skipped;
          continue;
        }
        RunRequest req{.strategy = s, .order = o, .local_size = ls, .variant = Variant::SYCL};
        results.push_back(runner.run(problem, req));
        ++tried;
      }
    }
  }
  std::printf("swept %d configurations (%d rejected by the section-III rules)\n\n", tried,
              skipped);

  std::sort(results.begin(), results.end(),
            [](const RunResult& a, const RunResult& b) { return a.gflops > b.gflops; });

  std::printf("rank  %-26s %10s %12s %8s %10s\n", "configuration", "GF/s", "kernel us",
              "occ %", "bound by");
  for (int i = 0; i < std::min<int>(top, static_cast<int>(results.size())); ++i) {
    const RunResult& r = results[static_cast<std::size_t>(i)];
    std::printf("%4d  %-26s %10.1f %12.1f %7.1f%% %10s\n", i + 1, r.label.c_str(), r.gflops,
                r.kernel_us, 100.0 * r.stats.occupancy.achieved, r.stats.timing.bound_by);
  }

  const RunResult& best = results.front();
  const RunResult& worst = results.back();
  std::printf("\ntuned winner: %s (%.1f GF/s), %.2fx over the worst configuration (%s)\n",
              best.label.c_str(), best.gflops, best.gflops / worst.gflops,
              worst.label.c_str());
  return 0;
}
