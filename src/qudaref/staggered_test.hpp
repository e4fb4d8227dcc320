// staggered_test.hpp — the `staggered_dslash_test`-style harness.
//
// Owns the SoA copies of a Dslash problem, runs the QUDA-like kernel for a
// chosen reconstruction scheme, autotunes the launch configuration (QUDA's
// tuner sweeps block sizes and caches the best), and reports GFLOP/s in
// QUDA's convention: the *nominal* operator FLOPs over wall time, so
// compression raises the reported rate (634 -> 728 -> 825 in the paper).
#pragma once

#include <optional>
#include <vector>

#include "core/problem.hpp"
#include "gpusim/stats.hpp"
#include "ksan/sanitizer.hpp"
#include "qudaref/quda_dslash.hpp"
#include "tune/tune_key.hpp"

namespace milc::qudaref {

struct StaggeredResult {
  Reconstruct scheme = Reconstruct::k18;
  int local_size = 0;           ///< tuned work-group size
  double kernel_us = 0.0;
  double per_iter_us = 0.0;     ///< kernel + in-order launch overhead
  double gflops = 0.0;          ///< nominal-FLOP convention (QUDA-style)
  gpusim::KernelStats stats;
};

/// The QUDA kernel's one launch — run_at, sanitize and run_functional all
/// use it — with its buffers in a fixed order (gauge, source, target,
/// neighbours) for the profiler's canonical address map and ksan's valid
/// memory: the profiled time is a pure function of the launch, which the
/// tuner's bit-for-bit replay verification requires.
[[nodiscard]] minisycl::LaunchSpec quda_spec(const QudaArgs& a, int local_size);

class StaggeredDslashTest {
 public:
  explicit StaggeredDslashTest(DslashProblem& problem);

  /// Profiled, autotuned run for one reconstruction scheme.  With a
  /// tune::TuneSession installed the sweep consults the cache under
  /// tune_key(scheme) first; a hit replays the cached local size once and
  /// verifies its kernel time bit-for-bit (docs/TUNING.md).
  [[nodiscard]] StaggeredResult run(Reconstruct scheme);

  /// Profiled run at a fixed local size (no tuning).
  [[nodiscard]] StaggeredResult run_at(Reconstruct scheme, int local_size);

  /// Functional run (recon-18) whose output lands in `problem.c()` —
  /// for correctness tests against dslash_reference.
  void run_functional(Reconstruct scheme);

  /// Launch configurations the tuner sweeps (the shared QUDA-style pool,
  /// tune::quda_tuning_candidates).
  [[nodiscard]] std::vector<int> tuning_candidates() const;

  /// The tuning-cache key run() consults: kernel "staggered_quda", the
  /// reconstruction scheme in the recon field.
  [[nodiscard]] tune::TuneKey tune_key(Reconstruct scheme) const;

  /// Replay the kernel under ksan; the launch declares the SoA field
  /// extents.
  [[nodiscard]] ksan::SanitizerReport sanitize(Reconstruct scheme, int local_size = 128);

 private:
  QudaArgs make_args(Reconstruct scheme);

  DslashProblem& problem_;
  std::optional<SoAGauge> gauge_;  ///< cached per scheme
  SoAColor b_soa_;
  SoAColor c_soa_;
};

}  // namespace milc::qudaref
