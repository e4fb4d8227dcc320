// sharded_cg.hpp — the CG solver on top of the sharded multi-device Dslash,
// with lightweight checkpoint/restart.
//
// This is the workload the halo layer exists for: MILC production runs spend
// most of their time inverting A = m^2 I - D_eo D_oe at multi-GPU scale,
// where a solve is minutes-to-hours long and a single link fault or device
// loss must not discard it (DeTar et al. 2017).  The solver composes three
// recovery tiers:
//
//  * the hardened MultiDeviceRunner underneath handles link faults
//    (checksummed retransmission) and device loss (failover to a smaller
//    grid) per Dslash application;
//  * an ABFT identity guards every apply: A is Hermitian, so for a fixed
//    random vector r with z = A_ref r computed once against the serial
//    reference, every y = A x must satisfy <r, y> == <z, x> up to roundoff —
//    one O(n) dot product per apply detects silent corruption of the apply;
//    mismatch triggers a bounded recompute;
//  * periodic snapshots of the solver state (x, r, p, ||r||^2, iteration),
//    each guarded by a true-residual audit and byte checksums: persistent
//    corruption or a device-loss failover restores the last consistent
//    snapshot and replays — exactness of the sharded Dslash (bit-for-bit
//    independent of the grid) makes the replay deterministic even on the
//    post-failover grid.
//
// With no fault plan installed every tier is pass-through: the iteration
// trajectory is bit-for-bit the one cg_solve produces over the same sharded
// apply (asserted in tests/test_sharded_cg.cpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "multidev/runner.hpp"

namespace milc::multidev {

/// Restarts per solve: every snapshot restore and every rebuild of the
/// recursion draws on this one budget; running out ends the solve with
/// `recovered_all = false`.
inline constexpr int kMaxRestarts = 8;

struct ShardedCgConfig {
  CgOptions cg{};
  Strategy strategy = Strategy::LP3_1;
  IndexOrder order = IndexOrder::kMajor;
  int local_size = 768;
  /// Two-level interconnect; the default is one node, an NVLink island.
  /// Multi-node solves exchange halos over the fabric tier too and recover
  /// from node loss exactly like device loss (the hardened runner shrinks
  /// the grid below the survivor count in one failover).
  gpusim::NodeTopology topo{};

  /// Halo wire format of the *inner* CG applies (docs/WIRE.md).  The exact
  /// fp64 default leaves the solve bit-for-bit unchanged.  A reduced format
  /// shrinks every halo payload; exactness is then preserved by the
  /// reliable-update outer loop: the recursion runs on the reduced wire,
  /// the residual is replaced by r = b - A x through the exact fp64 wire
  /// (with a p-restart) every 25 iterations and at the convergence gate,
  /// and convergence is only declared when an exact-wire true residual
  /// clears the tolerance (docs/WIRE.md §5).
  WireFormat wire{};

  /// Iterations between solver-state snapshots (0 disables checkpointing;
  /// the initial state is always snapshotted).  Each checkpoint pays one
  /// extra operator application for the true-residual audit — on the
  /// critical path in synchronous mode, overlapped with the next iteration's
  /// apply when `async_checkpoint` is set.
  int checkpoint_interval = 10;
  /// Asynchronous checkpointing: at the cadence the state is *staged* (a
  /// pure host-side copy, no operator application), the true-residual audit
  /// runs during the next iteration's apply window (accounted off the
  /// critical path, ShardedCgResult::hidden_applies), and only an audited
  /// staged state is promoted to the durable snapshot restores use —
  /// restores therefore stay bit-for-bit exact, they just may reach one
  /// cadence further back.  The deferred audit is the synchronous one and
  /// escalates the same way.  Default off: the synchronous path is untouched.
  bool async_checkpoint = false;

  /// Checkpoint audit: the true residual may exceed the recursion residual
  /// by at most this factor before the state is declared corrupted.
  double residual_audit_factor = 1e3;

  // --- deadline-aware execution (the serving tier, src/serve) --------------
  /// Cooperative cancellation, consulted once per CG iteration with
  /// (iteration, applies so far).  Return true to abandon the solve: it
  /// stops cleanly at the iteration boundary — the current iterate stays in
  /// `x`, `ShardedCgResult::cancelled` is set, and the residual is reported
  /// honestly.  A deadline scheduler converts its remaining simulated time
  /// into an apply budget checked here.  Deterministic callers key this off
  /// the simulated clock or apply counts — never the wall clock.
  std::function<bool(int iteration, int applies)> cancel;
};

/// One solver-level recovery decision.
struct SolverEvent {
  int iteration = 0;
  /// checkpoint | checkpoint-staged | audit-restore | audit-discard |
  /// recompute | restore | rebuild | failover | reliable-update | cancelled
  std::string kind;
  std::string detail;
};

/// One solve's outcome; its ElasticTally sums those of all its applies.
struct ShardedCgResult : ElasticTally {
  CgResult cg{};
  bool recovered_all = true;  ///< false: a recovery budget was exhausted
  bool cancelled = false;     ///< solve stopped by the cancel hook
  int applies = 0;            ///< sharded operator applications (incl. recomputes)
  int checkpoints_taken = 0;
  int restarts = 0;    ///< snapshot restores and recursion rebuilds (one budget)
  int recomputes = 0;  ///< applies discarded by the ABFT check
  int reliable_updates = 0;  ///< exact-wire residual replacements (reduced wire)
  /// The reliable-update certificate: the final true residual, computed
  /// through the exact fp64 wire, cleared the tolerance.  On the exact wire
  /// this coincides with `cg.converged`; on a reduced wire it is the claim
  /// that reduced-precision halos did not change the answer (docs/WIRE.md §5).
  bool certified = false;
  int failovers_observed = 0;
  PartitionGrid final_grid{};
  double recovery_us = 0.0;  ///< simulated time lost to faults across all applies

  // --- checkpoint overhead split (async vs synchronous) --------------------
  int checkpoint_applies = 0;  ///< audit applies paid for checkpointing
  int hidden_applies = 0;      ///< of those, overlapped off the critical path
  int snapshots_staged = 0;    ///< async mode: states staged pending audit
  int snapshots_promoted = 0;  ///< async mode: staged states promoted durable

  std::vector<SolverEvent> events;
  /// Every injected fault observed during the solve (replayable enumeration).
  std::vector<faultsim::FaultEvent> faults;

  [[nodiscard]] std::string summary() const;
};

/// CG inversion of (m^2 - D_eo D_oe) on even sites where every D application
/// runs through MultiDeviceRunner over a partition grid.
class ShardedCgSolver {
 public:
  /// Construction consults the installed tune::TuneSession (if any) for a
  /// cached "mdslash" decision matching this configuration and grid, and
  /// adopts its local size as the preferred size for every D application.
  /// Lookup-only: construction never explores, never runs kernels, never
  /// perturbs fault draw streams — and the adoption changes timing only,
  /// never solution values (local size is functionally inert; the
  /// bit-for-bit identity tests hold under any adopted size).
  ///
  /// Both parities' problems gather the one configuration `gauge` of
  /// `dims`; a caller solving on one configuration many times generates it
  /// once and builds every solver from it.
  ShardedCgSolver(const Coords& dims, const GaugeConfiguration& gauge, double mass,
                  PartitionGrid grid, ShardedCgConfig cfg = {});
  /// Generates the configuration, GaugeConfiguration::random(LatticeGeom(dims),
  /// gauge_seed), and delegates.
  ShardedCgSolver(const Coords& dims, std::uint64_t gauge_seed, double mass,
                  PartitionGrid grid, ShardedCgConfig cfg = {});
  ShardedCgSolver(int L, std::uint64_t gauge_seed, double mass, PartitionGrid grid,
                  ShardedCgConfig cfg = {});

  [[nodiscard]] const LatticeGeom& geom() const { return problem_e_.geom(); }
  [[nodiscard]] double mass() const { return mass_; }
  [[nodiscard]] const ShardedCgConfig& config() const { return cfg_; }
  /// The current grid (differs from the constructor's after a failover).
  [[nodiscard]] const PartitionGrid& grid() const { return grid_; }

  /// Solve A x = b (both even-parity).  `x` is the initial guess and holds
  /// the solution on return.  Never throws for injected fault kinds.
  [[nodiscard]] ShardedCgResult solve(const ColorField& b, ColorField& x);

  /// dsan entry: run solve() under the distributed-sanitizer recorder and
  /// check the cluster-wide trace — every apply's halo protocol plus the
  /// solver's checkpoint/restore/failover events (the CheckpointInWindow
  /// lint needs exactly this trace).  Pass `result` to also get the solve's
  /// outcome.  Keep the iteration budget short: the trace grows per apply.
  [[nodiscard]] std::vector<ksan::SanitizerReport> dsan_check(
      const ColorField& b, ColorField& x, ShardedCgResult* result = nullptr);

  /// One sharded application out = (m^2 - D_eo D_oe) in, exposed for the
  /// bit-for-bit identity tests.  No recovery tiers — the hardened runner's
  /// own tiers still apply when a fault plan is installed.
  void apply_normal(const ColorField& in, ColorField& out);

  /// Trusted serial-reference apply (dslash_reference twice) — the ABFT
  /// anchor and the convergence oracle of the chaos tests.
  void apply_reference(const ColorField& in, ColorField& out) const;

 private:
  /// Run one Dslash (problem.c() = D problem.b()) through the sharded path
  /// on the given halo wire format, over the problem's layout cache; returns
  /// false when the hardened runner exhausted recovery.  Adopts the
  /// post-failover grid and flags `failover_seen_`; failover events land in
  /// `res` stamped with the solver `iteration`.
  bool run_dslash(DslashProblem& problem, ShardLayouts& layouts, ShardedCgResult* res,
                  const WireFormat& wire, int iteration);
  bool apply_raw(const ColorField& in, ColorField& out, ShardedCgResult* res,
                 const WireFormat& wire, int iteration);

  double mass_;
  PartitionGrid grid_;
  ShardedCgConfig cfg_;
  DslashProblem problem_o_;  ///< target Odd:  c = D_oe b (b even)
  DslashProblem problem_e_;  ///< target Even: c = D_eo b (b odd)
  /// Each problem's partitions and gathered links, one per grid visited:
  /// built by the first apply on a grid, reused by every later one on any
  /// wire format (docs/MULTIDEV.md §2).
  ShardLayouts layouts_o_;
  ShardLayouts layouts_e_;
  MultiDeviceRunner runner_;
  bool failover_seen_ = false;
  /// The runner's live-rejoin stack, threaded through every hardened apply:
  /// the grids this solve abandoned in shrink failovers, newest last (empty
  /// at full capacity).  Each apply hands it in and stores back what is
  /// left, so heals restore capacity newest-first across applies.
  std::vector<RejoinTarget> rejoin_;
};

}  // namespace milc::multidev
