// bench_table1 — reproduces the paper's Table I (experiment E2): Nsight-
// Compute-style profile of a single kernel launch for every parallel
// strategy and work-item index order, local size 768 (256 for 1LP) or,
// where that does not fit the lattice, tune::pick_local_size's fallback.
// A lattice on which some configuration has no warp-aligned local size
// (L=10: 5000 sites) exits 2 before profiling anything.
#include <iostream>

#include "bench_common.hpp"
#include "gpusim/profiler.hpp"
#include "tune/candidates.hpp"

using namespace milc;
using namespace milc::bench;

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  DslashProblem problem(opt.L, opt.seed);
  DslashRunner runner;

  struct Col {
    Strategy s;
    IndexOrder o;
    int local;
    const char* name;
  };
  Col cols[] = {
      {Strategy::LP1, IndexOrder::kMajor, 256, "1LP"},
      {Strategy::LP2, IndexOrder::kMajor, 768, "2LP"},
      {Strategy::LP3_1, IndexOrder::kMajor, 768, "3LP-1 k"},
      {Strategy::LP3_1, IndexOrder::iMajor, 768, "3LP-1 i"},
      {Strategy::LP3_2, IndexOrder::kMajor, 768, "3LP-2 k"},
      {Strategy::LP3_2, IndexOrder::iMajor, 768, "3LP-2 i"},
      {Strategy::LP3_3, IndexOrder::kMajor, 768, "3LP-3 k"},
      {Strategy::LP3_3, IndexOrder::iMajor, 768, "3LP-3 i"},
      {Strategy::LP4_1, IndexOrder::kMajor, 768, "4LP-1 k"},
      {Strategy::LP4_1, IndexOrder::iMajor, 768, "4LP-1 i"},
      {Strategy::LP4_2, IndexOrder::lMajor, 768, "4LP-2 l"},
      {Strategy::LP4_2, IndexOrder::iMajor, 768, "4LP-2 i"},
  };

  for (Col& c : cols) {
    c.local = tune::pick_local_size(c.s, c.o, c.local, problem.sites());
    if (!is_valid_local_size(c.s, c.o, c.local, problem.sites())) {
      no_local_size(argv[0], c.name, problem.sites());
    }
  }
  print_header("Table I — profile of one kernel launch per configuration", opt,
               problem.sites());

  std::vector<gpusim::KernelStats> stats;
  for (const Col& c : cols) {
    RunRequest req{.strategy = c.s, .order = c.o, .local_size = c.local,
                   .variant = Variant::SYCL};
    RunResult r = runner.run(problem, req);
    r.stats.name = c.name;
    stats.push_back(r.stats);
    std::printf("profiled %-8s (%s, local %d)\n", c.name, to_string(c.o), c.local);
  }

  gpusim::print_table1(std::cout, stats);

  std::printf("Qualitative checks against the paper's Table I:\n");
  std::printf("  - divergent branches: zero for 1LP..3LP, thousands for 4LP\n");
  std::printf("  - shared memory 12.3 KB/WG for 3LP-1/2 and 4LP; zero otherwise\n");
  std::printf("  - k-major shows fewer L1 tag requests than i-major\n");
  std::printf("  - 1LP: lowest occupancy (register-limited) and most tag requests\n");

  std::printf("\nPer-kernel deep dive (timing decomposition, our extension):\n\n");
  for (const auto& st : stats) gpusim::print_kernel_report(std::cout, st);
  return 0;
}
