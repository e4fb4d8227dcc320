// service.hpp — the resilient multi-tenant solver service.
//
// SolverService accepts a stream of independent solve requests (mixed
// lattice sizes, right-hand-side counts, per-request deadlines, priorities
// and tenants) and schedules them across the simulated cluster on the
// deterministic clock.  It composes the serving tier end to end:
//
//   traffic ──> AdmissionQueue ──> dispatcher ──> ShardedCgSolver ──> SloReport
//                (quotas,           (placement,     (ABFT + checkpoint
//                 backpressure)      breakers,       + failover solves)
//                                    deadlines)
//
// The degradation ladder, in order of preference:
//   1. failover        — the hardened runner shrinks the grid mid-solve
//                        (recorded from the solve result);
//   2. shrink-to-survivors — the dispatcher places a request on fewer
//                        devices than it asked for when the preferred count
//                        is dead or breaker-open;
//   3. strategy-fallback — a failed solve retries on the next ladder rung;
//   4. shed            — the request is dropped with an enumerated
//                        ShedReason (the last resort, never silent).
//
// Pricing happens once, at construction, fault-free: every (catalog spec,
// device count) placement is profiled through MultiDeviceRunner::run before
// any fault plan exists, so admission and deadline arithmetic never perturb
// the injector's draw streams.  Everything after that runs on the simulated
// clock only — two runs of the same seeded scenario produce byte-identical
// SloReport::canonical() strings.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "multidev/sharded_cg.hpp"
#include "serve/breaker.hpp"
#include "serve/queue.hpp"
#include "serve/slo.hpp"

namespace milc::serve {

/// The machine the service schedules onto: `nodes` node groups of
/// `devices_per_node` devices each (gpusim::cluster pricing underneath).
struct ClusterSpec {
  int nodes = 2;
  int devices_per_node = 2;

  [[nodiscard]] int total() const { return nodes * devices_per_node; }
};

/// A client cancellation arriving at `at_us` for request `id` — cancels the
/// request whether it is still queued or already dispatched.
struct CancelEvent {
  double at_us = 0.0;
  std::uint64_t id = 0;
};

struct ServiceConfig {
  ClusterSpec cluster{};
  QueueConfig queue{};

  /// Hot-spare inventory advertised to every dispatched solve: with spares
  /// the hardened runner re-replicates a lost shard onto a standby instead
  /// of shrinking the grid, so placement capacity survives device loss.
  gpusim::SpareInventory spares{};
};

/// Offset basis of the serving tier's FNV-1a fingerprints (solution_fnv and
/// bench_serve's canonical_fnv, through io::fnv1a).  It is one digit short of
/// the standard 14695981039346656037; every published serve fingerprint and
/// SloReport digest was taken with it, so it stays.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

class SolverService {
 public:
  /// One priced way to run one catalog spec: how many devices, which
  /// partition grid, and the fault-free per-Dslash-iteration cost.
  struct Placement {
    int devices = 1;
    multidev::PartitionGrid grid{};
    double per_iter_us = 0.0;
  };

  /// Construction-time pricing accounting.  A warm-started service (a
  /// tune::TuneSession with the relevant "placement" entries installed)
  /// adopts cached grid decisions instead of scoring every candidate grid:
  /// cache_hits rises and grids_scored drops to zero while
  /// placements_priced stays identical — the measurable skip that
  /// bench_tune and the serve warm-start test assert (docs/TUNING.md).
  struct PricingStats {
    int placements_priced = 0;  ///< (spec, device count) placements profiled
    int grids_scored = 0;       ///< candidate grids scored across all placements
    int cache_hits = 0;         ///< placements replayed from the tuning cache
    int cache_misses = 0;       ///< placements explored (and recorded) cold
  };

  /// Prices every (spec, device count) placement fault-free.  Construct the
  /// service BEFORE installing a fault plan.  Each placement consults the
  /// installed tune::TuneSession first; a hit replays the cached grid and
  /// verifies the profiled per-iteration time bit-for-bit.
  explicit SolverService(std::vector<ProblemSpec> catalog, ServiceConfig cfg = {});

  [[nodiscard]] const std::vector<ProblemSpec>& catalog() const { return catalog_; }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }
  /// Priced placements of one spec, ascending device count (at least the
  /// single-device entry; wider counts only where the lattice partitions).
  [[nodiscard]] const std::vector<Placement>& placements(int spec) const {
    return placements_[static_cast<std::size_t>(spec)];
  }
  [[nodiscard]] const PricingStats& pricing_stats() const { return pricing_; }

  /// Run one traffic scenario to completion on the simulated clock.  All
  /// mutable scheduler state (devices, breakers, queue) resets at entry, so
  /// the same service can replay scenarios back to back.  Install a fault
  /// plan around this call to run chaos traffic.
  [[nodiscard]] SloReport run(const std::string& scenario,
                              std::vector<SolveRequest> traffic,
                              std::vector<CancelEvent> cancels = {});

  /// Fault-free reference solution checksums for (spec, rhs, source_seed)
  /// solved with `strategy` — the bit-for-bit oracle the chaos benches
  /// compare completed requests against (pass the outcome's strategy_used:
  /// bit-identity holds per strategy, across grids and fault storms).  Call
  /// with NO fault plan installed.
  [[nodiscard]] std::vector<std::uint64_t> reference_checksums(
      int spec, int rhs, std::uint64_t source_seed,
      Strategy strategy = Strategy::LP3_1) const;

 private:
  /// One device or node group.  Its breaker's name ("d<k>" | "n<j>") names
  /// it in every probe, heal and degradation string.
  struct Resource {
    CircuitBreaker breaker;
    bool alive = true;
    double down_since = -1.0;  ///< clock at loss; -1 when alive (recovery time)
    double busy_until = 0.0;   ///< devices only: end of the current dispatch
  };
  /// A dispatched request: the solve executed eagerly at dispatch (the
  /// kernels are real), its *simulated* completion lands at `complete_us`.
  struct Inflight {
    SolveRequest req;
    RequestOutcome outcome;
    std::vector<int> devs;
    double complete_us = 0.0;
    bool ok = false;
    ShedReason fail_reason = ShedReason::recovery_exhausted;
    std::string fail_detail;
    /// (rank -> fault count) attribution parsed from the solve's fault log.
    std::map<int, int> rank_faults;
    std::map<int, int> node_faults;  ///< run-topology node index -> count
  };

  struct PlacePick {
    enum class Status { placed, busy, infeasible } status = Status::infeasible;
    std::vector<int> devs;
  };

  void reset_runtime_state();
  void price_catalog();
  /// The gauge configuration of catalog spec `spec`, generated by the first
  /// dispatch of the spec and kept for every later one.
  [[nodiscard]] const GaugeConfiguration& gauge(int spec);
  [[nodiscard]] int max_priced_devices(int spec) const;

  [[nodiscard]] Resource& device(int k) { return resources_[static_cast<std::size_t>(k)]; }
  [[nodiscard]] const Resource& device(int k) const {
    return resources_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] Resource& node(int j) { return device(cfg_.cluster.total() + j); }
  [[nodiscard]] const Resource& node(int j) const { return device(cfg_.cluster.total() + j); }

  [[nodiscard]] PlacePick pick_devices(int k, double now) const;
  [[nodiscard]] int alive_devices() const;

  void process_arrival(SloReport& rep, const SolveRequest& req, double now);
  void process_cancel(SloReport& rep, const CancelEvent& ev, double now);
  void process_completion(SloReport& rep, Inflight f, double now);
  void health_checks(SloReport& rep, double now);
  void run_probes(SloReport& rep, double now);
  void sweep_queue(SloReport& rep, double now);
  void dispatch_ready(SloReport& rep, double now);
  void execute(SloReport& rep, Inflight& f, const Placement& placement,
               int apply_budget, double now);
  void shed(SloReport& rep, const SolveRequest& req, ShedReason reason,
            std::string detail, double now, RequestOutcome* partial = nullptr);
  void degrade(SloReport& rep, double now, std::uint64_t req_id, std::string kind,
               std::string detail);
  [[nodiscard]] double next_event_time(double now, std::size_t next_arrival,
                                       std::size_t next_cancel,
                                       const std::vector<SolveRequest>& traffic,
                                       const std::vector<CancelEvent>& cancels) const;

  std::vector<ProblemSpec> catalog_;
  ServiceConfig cfg_;
  gpusim::NodeTopology topo_;
  std::vector<std::vector<Placement>> placements_;
  PricingStats pricing_;
  /// One configuration per catalog spec (1152 bytes per site), empty until
  /// gauge() first needs it.  Construction leaves them empty: its pricing
  /// launches already set the service's set-up time and peak memory.
  std::vector<std::optional<GaugeConfiguration>> gauges_;

  // --- per-run state (reset by run()) --------------------------------------
  AdmissionQueue queue_;
  std::vector<Resource> resources_;  ///< the devices, then the node groups
  std::vector<Inflight> inflight_;
  std::map<std::string, double> tenant_busy_us_;
};

}  // namespace milc::serve
