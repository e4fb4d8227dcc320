// bench_roofline — ablation A4 (ours): roofline placement of every
// operator/strategy in the repository.  Makes the paper's premise ("the
// benchmark under consideration is memory-bound", §V) quantitative and
// shows where the Wilson operator and the float/compressed variants sit.
#include "bench_common.hpp"
#include "core/compressed.hpp"
#include "core/precision.hpp"
#include "gpusim/roofline.hpp"
#include "qudaref/staggered_test.hpp"
#include "wilson/wilson.hpp"

using namespace milc;
using namespace milc::bench;

namespace {

void print_point(const char* label, const gpusim::RooflinePoint& p) {
  std::printf("%-28s %10.2f %14.1f %14.1f %9.0f%% %s\n", label, p.intensity,
              p.attainable_gflops, p.achieved_gflops, 100.0 * p.roof_fraction,
              p.memory_bound ? "memory-bound" : "compute-bound");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  DslashProblem problem(opt.L, opt.seed);
  DslashRunner runner;
  const gpusim::MachineModel machine = runner.machine();
  print_header("Roofline placement of every operator (ablation A4)", opt, problem.sites());

  std::printf("\nA100 roofline: %.0f GF/s FP64 (empirical) / %.0f GB/s HBM; ridge at %.1f "
              "FLOP/byte\n",
              machine.empirical_peak_tflops * 1e3, machine.dram_peak_gbs,
              machine.empirical_peak_tflops * 1e3 / machine.dram_peak_gbs);
  std::printf("\n%-28s %10s %14s %14s %10s %s\n", "kernel", "FLOP/B", "attainable",
              "achieved GF/s", "of roof", "regime");

  for (Strategy s : {Strategy::LP1, Strategy::LP2, Strategy::LP3_1, Strategy::LP4_1}) {
    const auto orders = orders_of(s);
    const int local = s == Strategy::LP1 ? 256 : 768;
    RunRequest req{.strategy = s, .order = orders[0], .local_size = local,
                   .variant = Variant::SYCL};
    const RunResult r = runner.run(problem, req);
    print_point(r.label.c_str(), gpusim::roofline_analyze(machine, r.stats));
  }

  // QUDA with and without compression.
  qudaref::StaggeredDslashTest quda(problem);
  for (Reconstruct scheme : {Reconstruct::k18, Reconstruct::k9}) {
    const auto q = quda.run(scheme);
    print_point((std::string("QUDA ") + to_string(scheme)).c_str(),
                gpusim::roofline_analyze(machine, q.stats));
  }

  // Float 3LP-1 (same FLOPs, half the bytes -> double the intensity).
  {
    FloatDslash fd(problem.view(), problem.neighbors());
    FloatColorField fin(problem.b()), fout(problem.geom(), problem.target_parity());
    const auto st = fd.profile(fin, fout, 768);
    print_point("3LP-1 float", gpusim::roofline_analyze(machine, st));
  }

  // Compressed 3LP-1.
  {
    CompressedDslash cd(problem.view(), problem.neighbors());
    ColorField out(problem.geom(), problem.target_parity());
    const auto st = cd.profile(problem.b(), out, 96);
    print_point("3LP-1 recon-12", gpusim::roofline_analyze(machine, st));
  }

  // Wilson (8-point stencil, 4 spins): higher intensity by construction.
  {
    wilson::WilsonField win(problem.geom(), opposite(problem.target_parity()));
    win.fill_random(opt.seed + 2);
    wilson::WilsonField wout(problem.geom(), problem.target_parity());
    wilson::WilsonDslash wd(problem.view(), problem.neighbors());
    const auto st = wd.profile(win, wout, 128);
    print_point("Wilson site/thread", gpusim::roofline_analyze(machine, st));
  }

  std::printf("\nreading: every staggered variant sits far left of the %.1f FLOP/byte\n"
              "ridge — the memory-bound regime the whole paper operates in; compression\n"
              "and float storage move kernels right along the roof, Wilson starts higher.\n",
              machine.empirical_peak_tflops * 1e3 / machine.dram_peak_gbs);
  return 0;
}
