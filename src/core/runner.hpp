// runner.hpp — executes Dslash strategy/variant configurations on the
// simulated device and reports paper-convention results.
//
// The paper's methodology (§IV-B): mean kernel runtime over 10 runs x 100
// iterations + 1 warm-up, GFLOP/s from the theoretical FLOP count.  Our
// simulator is deterministic, so one profiled execution yields the exact
// per-iteration kernel time; the runner adds the per-submission launch
// overhead of the queue's ordering semantics, which is what distinguishes
// in-order from out-of-order builds across the 100-iteration loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "core/strategy.hpp"
#include "core/variants.hpp"
#include "gpusim/stats.hpp"
#include "ksan/sanitizer.hpp"
#include "minisycl/queue.hpp"
#include "tune/explorer.hpp"
#include "tune/tune_key.hpp"

namespace milc {

struct RunRequest {
  Strategy strategy = Strategy::LP3_1;
  IndexOrder order = IndexOrder::kMajor;
  int local_size = 768;
  Variant variant = Variant::SYCL;
  int iterations = 100;  ///< kernel iterations per run (paper: 100)
};

/// The requests a recovery path tries in order: `req` itself, then every
/// other rung of kFallbackLadder adapted to it — plain SYCL variant, and the
/// first paper-valid (order, local size) on `sites` target sites when the
/// caller's choice does not exist for that strategy.
[[nodiscard]] std::vector<RunRequest> fallback_requests(const RunRequest& req,
                                                        std::int64_t sites);

struct RunResult {
  std::string label;
  gpusim::KernelStats stats;   ///< Nsight-style record of one kernel launch
  double kernel_us = 0.0;      ///< simulated kernel duration
  double per_iter_us = 0.0;    ///< kernel + launch overhead (what a host timer sees)
  double gflops = 0.0;         ///< theoretical FLOPs / per_iter (paper convention)
};

/// Result of an autotuned run (run_tuned): the winning execution plus the
/// tuning-cache entry it produced or replayed.
struct TunedRunResult {
  RunResult result;
  tune::TuneEntry entry;
  bool from_cache = false;    ///< true when a cache hit was replayed
  int candidates_tried = 0;   ///< 1 on a hit; the sweep size on a miss
};

class DslashRunner {
 public:
  explicit DslashRunner(gpusim::MachineModel machine = gpusim::a100()) : machine_(machine) {}

  [[nodiscard]] const gpusim::MachineModel& machine() const { return machine_; }

  /// Profiled run: full simulation, Table-I statistics, paper-convention
  /// GFLOP/s.  Throws std::invalid_argument for configurations that violate
  /// the §III local-size rules.
  [[nodiscard]] RunResult run(DslashProblem& problem, const RunRequest& req) const;

  /// Like run(), but submits on a caller-owned queue — the hook the resilient
  /// execution path uses so injected faults land in *its* asynchronous error
  /// list (drained with wait_and_throw) instead of a throwaway queue's.  The
  /// caller chooses the queue's order; per-iteration time uses that queue's
  /// launch overhead.
  [[nodiscard]] RunResult run_on(minisycl::queue& q, DslashProblem& problem,
                                 const RunRequest& req) const;

  /// Autotuned run.  With a tune::TuneSession installed, consults the cache
  /// under tune_key() first: a hit replays the cached configuration once and
  /// verifies its simulated time bit-for-bit (tune::ReplayMismatch on any
  /// difference — the honesty rule of docs/TUNING.md); a miss sweeps
  /// orders_of(s) x paper_local_sizes and records the winner.  Without a
  /// session it degrades to the plain exhaustive sweep.
  [[nodiscard]] TunedRunResult run_tuned(DslashProblem& problem, Strategy s,
                                         Variant variant = Variant::SYCL,
                                         int iterations = 100) const;

  /// The cache key run_tuned consults: this machine's fingerprint, the
  /// problem geometry, kernel "dslash", config "<strategy> <variant>".
  [[nodiscard]] tune::TuneKey tune_key(const DslashProblem& problem, Strategy s,
                                       Variant variant = Variant::SYCL) const;

  /// Functional run (no simulation): executes the chosen kernel once so its
  /// output can be compared against dslash_reference.
  void run_functional(DslashProblem& problem, Strategy s, IndexOrder o, int local_size,
                      bool use_syclcplx = false) const;

  /// Sanitized run: replay the chosen kernel under ksan (races, memcheck,
  /// init-check, perf lints).  Same kernel object and LaunchSpec the other
  /// modes launch; the spec's buffer list is ksan's valid memory.
  [[nodiscard]] ksan::SanitizerReport sanitize(DslashProblem& problem, Strategy s, IndexOrder o,
                                               int local_size, bool use_syclcplx = false) const;

 private:
  gpusim::MachineModel machine_;
};

}  // namespace milc
