// resilient_runner.hpp — a Dslash execution path that degrades gracefully
// under faults instead of crashing.
//
// Wraps DslashRunner with the recovery ladder a production lattice-QCD
// service needs (MILC production runs at cluster scale treat node faults as
// routine — DeTar et al. 2017):
//
//  * bounded retry with exponential backoff for transient faults (launch
//    failures, sticky device faults, watchdog timeouts) — deterministic,
//    charged to the *simulated* recovery clock, never the wall clock;
//  * a strategy fallback ladder (kFallbackLadder: 3LP-1 → 2LP → 1LP) when one
//    strategy keeps faulting — a mis-generated or resource-hungry kernel
//    must not take the service down when a simpler shape still runs;
//  * ABFT output verification: Dslash is linear (eq. (1)), so a fixed
//    random contraction  s_ref = <r, D·B>  computed once against the golden
//    serial reference detects silent bit-flip corruption of the output for
//    the cost of one O(n) dot product per attempt — recompute on mismatch;
//  * every injected fault the runner observes lands in a structured
//    RecoveryReport with the action taken (retry / fallback / recompute),
//    so chaos tests and the `bench_fig6 --faults` smoke can assert full
//    fault→action coverage.
//
// With no FaultPlan installed the runner is a pass-through: identical
// simulated timings, GFLOP/s and output to DslashRunner (asserted
// bit-for-bit in tests/test_resilient_runner.cpp).
#pragma once

#include <string>
#include <vector>

#include "core/problem.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"

namespace milc {

enum class RecoveryAction {
  retry,        ///< same strategy resubmitted after backoff
  fallback,     ///< strategy abandoned for the next rung of the ladder
  recompute,    ///< ABFT mismatch — output discarded and recomputed
  alloc_retry,  ///< ABFT scratch allocation failed; retried after backoff
  degrade,      ///< ABFT scratch permanently unavailable; host fallback used
  abort,        ///< recovery exhausted (report.succeeded == false)
};

[[nodiscard]] const char* to_string(RecoveryAction a);

/// One recovery decision, paired with the injected faults that provoked it.
struct RecoveryStep {
  RecoveryAction action = RecoveryAction::retry;
  Strategy strategy = Strategy::LP3_1;
  int attempt = 0;            ///< attempt index within that strategy (0-based)
  double backoff_us = 0.0;    ///< simulated backoff charged before the next attempt
  std::string site;           ///< kernel/config label, or "malloc_device"
  std::string detail;
  /// Injector log entries observed during the failed attempt (empty when the
  /// injector is off — e.g. an ABFT mismatch from externally corrupted data).
  std::vector<faultsim::FaultEvent> faults;
};

struct RecoveryReport {
  bool succeeded = false;
  bool abft_checked = false;   ///< an ABFT contraction guarded the accepted output
  Strategy requested = Strategy::LP3_1;
  Strategy final_strategy = Strategy::LP3_1;
  int attempts = 0;            ///< total kernel attempts across all strategies
  double recovery_us = 0.0;    ///< simulated time lost to faults: wasted attempts + backoffs
  std::vector<RecoveryStep> steps;
  RunResult result;            ///< the accepted run (valid when succeeded)

  [[nodiscard]] int count(RecoveryAction a) const;
  [[nodiscard]] std::size_t faults_observed() const;
  /// Multi-line human-readable account of every fault and action.
  [[nodiscard]] std::string summary() const;
};

class ResilientRunner {
 public:
  /// Kernel attempts per strategy rung, including the first try; also the
  /// ABFT check vector's allocation budget.
  static constexpr int kMaxAttemptsPerStrategy = 4;

  /// Execute one Dslash application resiliently.  On success problem.c()
  /// holds the verified output.  Never throws for injected fault kinds; a
  /// report with succeeded == false means the whole ladder was exhausted.
  [[nodiscard]] RecoveryReport run(DslashProblem& problem, const RunRequest& req) const;

 private:
  DslashRunner runner_;
};

}  // namespace milc
