// slo.hpp — structured service-level accounting for the serving tier.
//
// The SloReport is the service's contract with its chaos tests: every
// request is enumerated with its fate (completed / rejected / shed /
// cancelled) and reason, every degradation decision (failover,
// shrink-to-survivors, strategy fallback, shed) is an event, latency
// percentiles run on the simulated clock, and per-tenant rows expose
// fairness.  `canonical()` is a deterministic serialization: two runs of the
// same seeded scenario must produce byte-identical strings, which is how
// replay identity is asserted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "multidev/elastic.hpp"
#include "serve/breaker.hpp"
#include "serve/request.hpp"

namespace milc::serve {

/// The fate of one request, filled in as the service processes it.  Its
/// ElasticTally sums the elastic recovery inside its solves, over RHS.
struct RequestOutcome : multidev::ElasticTally {
  enum class Status { rejected, completed, shed, cancelled };

  SolveRequest req;
  Status status = Status::rejected;
  std::string reason;  ///< reject/shed reason string; empty for completed

  double dispatch_us = -1.0;  ///< first dispatch time; -1 = never dispatched
  double complete_us = -1.0;  ///< completion/shed time on the simulated clock
  double latency_us = 0.0;    ///< complete - submit (completed requests)
  bool deadline_met = false;

  std::string devices;  ///< physical placement, e.g. "d0+d1"
  std::string grid;     ///< partition grid label actually used
  Strategy strategy_used = Strategy::LP3_1;
  int rhs_done = 0;       ///< right-hand sides finished (== req.rhs when completed)
  int iterations = 0;     ///< CG iterations, summed over RHS
  int applies = 0;        ///< operator applications, summed over RHS
  int restarts = 0;       ///< checkpoint restores, summed over RHS
  int failovers = 0;      ///< grid failovers observed inside the solves
  std::size_t faults_observed = 0;  ///< injected faults logged during the solves
  bool abft_certified = false;      ///< every apply ran under the ABFT identity
  double worst_true_residual = 0.0;
  /// FNV-1a checksum of each RHS solution's raw bytes — the bit-for-bit
  /// verification handle (compared against fault-free reference solves).
  std::vector<std::uint64_t> solution_fnv;

  [[nodiscard]] const char* status_str() const;
};

/// One graceful-degradation decision (or resource-health transition).
struct DegradationEvent {
  double at_us = 0.0;
  std::uint64_t request_id = 0;  ///< 0 when not tied to one request
  std::string kind;  ///< failover | shrink-to-survivors | strategy-fallback |
                     ///< shed | device-lost | node-lost | probe
  std::string detail;
};

/// Per-tenant aggregates — the fairness view.
struct TenantSlo {
  std::string tenant;
  int submitted = 0, admitted = 0, rejected = 0;
  int completed = 0, shed = 0, cancelled = 0;
  int deadline_met = 0, deadline_missed = 0;
  double busy_device_us = 0.0;  ///< device-occupancy consumed (capacity share)
  double p50_latency_us = 0.0, p99_latency_us = 0.0;
};

/// The run's account.  Its ElasticTally is the solver-level elastic recovery,
/// summed over outcomes by finalize().
struct SloReport : multidev::ElasticTally {
  std::string scenario;
  std::uint64_t fault_seed = 0;
  double makespan_us = 0.0;  ///< clock value when the last event settled

  // Aggregates over outcomes (filled by finalize()).
  int submitted = 0, admitted = 0, rejected = 0;
  int completed = 0, shed = 0, cancelled = 0;
  int deadline_met = 0, deadline_missed = 0;
  double p50_latency_us = 0.0, p99_latency_us = 0.0, max_latency_us = 0.0;

  // Serve-tier elastic recovery: resources healed by the service's own heal
  // checks, and their cumulative outage time, filled in as heals land.
  int devices_rejoined = 0;       ///< serve-tier device heals (probation via breaker)
  int nodes_rejoined = 0;         ///< serve-tier node heals
  double recovery_time_us = 0.0;  ///< summed loss-to-heal outage of rejoined resources

  std::vector<RequestOutcome> outcomes;  ///< sorted by request id
  std::vector<TenantSlo> tenants;        ///< sorted by tenant name
  std::vector<DegradationEvent> degradations;
  std::vector<BreakerEvent> breaker_events;
  std::size_t faults_injected = 0;  ///< injector log entries during the run

  /// Sort outcomes, compute the aggregate counters, percentiles and the
  /// per-tenant table.  Call once, after the run drains.
  void finalize();

  /// Human-readable multi-line account.
  [[nodiscard]] std::string summary() const;

  /// Deterministic full serialization — byte-identical across replays of
  /// the same seeded scenario (the reproducibility oracle).
  [[nodiscard]] std::string canonical() const;
};

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]); 0 when empty.
[[nodiscard]] double percentile_us(std::vector<double> sample, double q);

}  // namespace milc::serve
