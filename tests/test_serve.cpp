// test_serve.cpp — the serving tier: admission-queue edge cases (zero and
// expired deadlines, duplicate ids, quota exhaustion ordering), the circuit
// breaker state machine (trip thresholds, cooloff growth, the half-open
// probe race guard), the deadline hooks on ShardedCgSolver (an apply
// budget and a cooperative cancel, both through its cancel hook), and
// SolverService end-to-end: cancellation after dispatch,
// shrink-to-survivors placement, breaker recovery under a device storm, a
// node heal returning through probation, and same-seed replay identity of
// the SloReport.
#include <gtest/gtest.h>

#include "serve/service.hpp"

namespace milc::serve {
namespace {

using faultsim::FaultKind;
using faultsim::FaultPlan;
using faultsim::ScheduledFault;
using faultsim::ScopedFaultInjection;

SolveRequest req(std::uint64_t id, const char* tenant, int priority,
                 double submit_us = 0.0, double deadline_us = kNoDeadline) {
  SolveRequest r;
  r.id = id;
  r.tenant = tenant;
  r.priority = priority;
  r.submit_us = submit_us;
  r.deadline_us = deadline_us;
  r.source_seed = 700 + id * 13;
  return r;
}

// --- AdmissionQueue ---------------------------------------------------------

TEST(AdmissionQueue, ZeroAndExpiredDeadlinesRejectedAtAdmission) {
  AdmissionQueue q;
  // A deadline at or before the submission instant can never be met.
  EXPECT_FALSE(q.admit(req(1, "a", 1, 100.0, 100.0), 100.0).admitted);
  EXPECT_EQ(q.admit(req(1, "a", 1, 100.0, 100.0), 100.0).reason,
            RejectReason::deadline_expired);
  EXPECT_FALSE(q.admit(req(2, "a", 1, 100.0, 40.0), 100.0).admitted);
  EXPECT_TRUE(q.admit(req(3, "a", 1, 100.0, 100.5), 100.0).admitted);
  EXPECT_EQ(q.size(), 1u);
}

TEST(AdmissionQueue, DuplicateIdsRejectedForever) {
  AdmissionQueue q;
  EXPECT_TRUE(q.admit(req(7, "a", 1), 0.0).admitted);
  // Still queued: duplicate.
  EXPECT_EQ(q.admit(req(7, "b", 1), 1.0).reason, RejectReason::duplicate_id);
  SolveRequest out;
  ASSERT_TRUE(q.pop(1.0, out));
  q.mark_inflight(out);
  // In flight: still a duplicate.
  EXPECT_EQ(q.admit(req(7, "a", 1), 2.0).reason, RejectReason::duplicate_id);
  q.mark_done(out);
  // Finished: ids are never recycled.
  EXPECT_EQ(q.admit(req(7, "a", 1), 3.0).reason, RejectReason::duplicate_id);
}

TEST(AdmissionQueue, TenantQuotaThenGlobalCapacity) {
  QueueConfig cfg;
  cfg.capacity = 4;
  cfg.tenant_max_queued = 2;
  AdmissionQueue q(cfg);
  EXPECT_TRUE(q.admit(req(1, "a", 1), 0.0).admitted);
  EXPECT_TRUE(q.admit(req(2, "a", 1), 0.0).admitted);
  // Third for tenant a: the per-tenant quota fires before global capacity.
  EXPECT_EQ(q.admit(req(3, "a", 1), 0.0).reason, RejectReason::tenant_quota);
  EXPECT_TRUE(q.admit(req(4, "b", 1), 0.0).admitted);
  EXPECT_TRUE(q.admit(req(5, "b", 1), 0.0).admitted);
  // Queue is globally full: even a fresh tenant is backpressured.
  EXPECT_EQ(q.admit(req(6, "c", 1), 0.0).reason, RejectReason::queue_full);
  EXPECT_EQ(q.size(), 4u);
}

TEST(AdmissionQueue, PopOrderIsPriorityThenDeadlineThenId) {
  AdmissionQueue q;
  ASSERT_TRUE(q.admit(req(5, "a", 1), 0.0).admitted);
  ASSERT_TRUE(q.admit(req(2, "b", 2), 0.0).admitted);                 // no deadline
  ASSERT_TRUE(q.admit(req(4, "c", 2, 0.0, 100.0), 0.0).admitted);    // EDF ties...
  ASSERT_TRUE(q.admit(req(3, "d", 2, 0.0, 100.0), 0.0).admitted);    // ...go to lower id
  SolveRequest out;
  std::vector<std::uint64_t> order;
  while (q.pop(0.0, out)) {
    order.push_back(out.id);
    q.mark_inflight(out);  // distinct tenants: quota never gates this test
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 4, 2, 5}));
}

TEST(AdmissionQueue, BackoffAndInflightQuotaGatePop) {
  QueueConfig cfg;
  cfg.tenant_max_inflight = 1;
  AdmissionQueue q(cfg);
  ASSERT_TRUE(q.admit(req(1, "a", 1), 0.0).admitted);
  ASSERT_TRUE(q.admit(req(2, "a", 1), 0.0).admitted);
  SolveRequest out;
  ASSERT_TRUE(q.pop(0.0, out));
  EXPECT_EQ(out.id, 1u);
  q.mark_inflight(out);
  // Tenant a is at its in-flight quota: id 2 waits even though it is queued.
  EXPECT_FALSE(q.pop(0.0, out));
  q.mark_done(out);
  ASSERT_TRUE(q.pop(0.0, out));
  EXPECT_EQ(out.id, 2u);
  // Requeue with backoff: ineligible until not_before_us.
  out.not_before_us = 500.0;
  q.requeue(out);
  EXPECT_FALSE(q.pop(499.0, out));
  EXPECT_EQ(q.next_ready_us(499.0), 500.0);
  EXPECT_TRUE(q.pop(500.0, out));
}

TEST(AdmissionQueue, SweepExpiredAndDrainOrderById) {
  AdmissionQueue q;
  ASSERT_TRUE(q.admit(req(9, "a", 1, 0.0, 50.0), 0.0).admitted);
  ASSERT_TRUE(q.admit(req(4, "b", 2, 0.0, 40.0), 0.0).admitted);
  ASSERT_TRUE(q.admit(req(6, "c", 3), 0.0).admitted);
  const auto expired = q.sweep_expired(60.0);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].id, 4u);
  EXPECT_EQ(expired[1].id, 9u);
  const auto rest = q.drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].id, 6u);
  EXPECT_TRUE(q.empty());
}

// --- CircuitBreaker ---------------------------------------------------------

TEST(CircuitBreaker, TripsOnConsecutiveFailuresOnly) {
  CircuitBreaker b("d0", BreakerConfig{});
  b.on_failure(1.0, "x");
  b.on_failure(2.0, "x");
  b.on_success(3.0);  // resets the consecutive count
  b.on_failure(4.0, "x");
  b.on_failure(5.0, "x");
  EXPECT_EQ(b.state(), BreakerState::closed);
  EXPECT_TRUE(b.allow());
  b.on_failure(6.0, "x");  // third consecutive
  EXPECT_EQ(b.state(), BreakerState::open);
  EXPECT_FALSE(b.allow());
  EXPECT_EQ(b.trips(), 1);
}

TEST(CircuitBreaker, CooloffGrowsPerTripAndIsCapped) {
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooloff_us = 1000.0;
  cfg.cooloff_factor = 2.0;
  cfg.max_cooloff_us = 3000.0;
  CircuitBreaker b("d0", cfg);
  b.on_failure(0.0, "x");
  EXPECT_EQ(b.open_until(), 1000.0);
  b.poll(1000.0);
  ASSERT_EQ(b.state(), BreakerState::half_open);
  b.on_failure(1000.0, "probe failed");  // second trip: cooloff doubles
  EXPECT_EQ(b.open_until(), 3000.0);
  b.poll(3000.0);
  b.on_failure(3000.0, "probe failed");  // third trip: 4000 us capped to 3000
  EXPECT_EQ(b.open_until(), 6000.0);
  EXPECT_EQ(b.trips(), 3);
}

TEST(CircuitBreaker, HalfOpenProbeRaceGuardAndRecovery) {
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  CircuitBreaker b("d1", cfg);
  b.on_failure(0.0, "x");
  EXPECT_FALSE(b.probe_allowed());  // still open
  b.poll(cfg.cooloff_us);
  ASSERT_EQ(b.state(), BreakerState::half_open);
  EXPECT_FALSE(b.allow());  // half-open never takes ordinary work
  ASSERT_TRUE(b.probe_allowed());
  const int token = b.probe_started();
  // The race guard: a second concurrent dispatch cycle gets no probe.
  EXPECT_FALSE(b.probe_allowed());
  // A *work* success landing while half-open (a solve dispatched before the
  // trip) must never close the breaker in place of the probe.
  b.on_success(cfg.cooloff_us + 1.0);
  EXPECT_EQ(b.state(), BreakerState::half_open);
  // Only the probe's own outcome closes it.
  b.on_probe_success(cfg.cooloff_us + 2.0, token);
  EXPECT_EQ(b.state(), BreakerState::closed);
  EXPECT_TRUE(b.allow());
  // The full trajectory is enumerated.
  ASSERT_EQ(b.events().size(), 3u);
  EXPECT_EQ(b.events()[0].to, BreakerState::open);
  EXPECT_EQ(b.events()[1].to, BreakerState::half_open);
  EXPECT_EQ(b.events()[2].to, BreakerState::closed);
}

// Regression: a probe outcome that lands after a concurrent failure reopened
// the breaker carries a stale token and must be ignored — previously it could
// close a breaker that had just re-tripped, closing it out of order.
TEST(CircuitBreaker, StaleProbeSuccessAfterConcurrentFailureIsIgnored) {
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooloff_us = 100.0;
  CircuitBreaker b("d2", cfg);
  b.on_failure(0.0, "x");
  b.poll(100.0);
  ASSERT_EQ(b.state(), BreakerState::half_open);
  const int token = b.probe_started();
  // A concurrent in-flight solve fails while the probe is out: reopen.
  b.on_failure(101.0, "late solve failure");
  ASSERT_EQ(b.state(), BreakerState::open);
  EXPECT_EQ(b.trips(), 2);
  // The probe's success now arrives — stale, must NOT close the breaker.
  b.on_probe_success(102.0, token);
  EXPECT_EQ(b.state(), BreakerState::open);
  EXPECT_FALSE(b.allow());
  // Same for a stale probe failure: no double trip.
  b.on_probe_failure(103.0, "stale", token);
  EXPECT_EQ(b.trips(), 2);
  // The next half-open cycle issues a fresh token that does resolve.
  b.poll(b.open_until());
  ASSERT_EQ(b.state(), BreakerState::half_open);
  const int token2 = b.probe_started();
  EXPECT_NE(token2, token);
  b.on_probe_success(b.open_until() + 1.0, token2);
  EXPECT_EQ(b.state(), BreakerState::closed);
}

// A probe failure reopens with a grown cooloff; a rejoined resource enters
// probation (half-open) regardless of prior state so capacity returns only
// through a successful probe.
TEST(CircuitBreaker, ProbeFailureReopensAndProbationForcesHalfOpen) {
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooloff_us = 100.0;
  cfg.cooloff_factor = 2.0;
  CircuitBreaker b("d3", cfg);
  b.on_failure(0.0, "x");
  b.poll(100.0);
  const int token = b.probe_started();
  b.on_probe_failure(100.0, "still broken", token);
  EXPECT_EQ(b.state(), BreakerState::open);
  EXPECT_EQ(b.open_until(), 300.0);  // 100 + 100 * 2^1
  // Elastic rejoin: force probation from open.
  b.begin_probation(150.0, "healed; rejoining");
  EXPECT_EQ(b.state(), BreakerState::half_open);
  EXPECT_FALSE(b.allow());  // no traffic before a probe passes
  ASSERT_TRUE(b.probe_allowed());
  const int token2 = b.probe_started();
  b.on_probe_success(151.0, token2);
  EXPECT_EQ(b.state(), BreakerState::closed);
  EXPECT_TRUE(b.allow());
}

// --- deadline hooks on the sharded CG solver --------------------------------

const Coords kDims{4, 4, 4, 12};
constexpr std::uint64_t kGaugeSeed = 31;
constexpr double kMass = 0.5;

multidev::ShardedCgConfig cg_config() {
  multidev::ShardedCgConfig cfg;
  cfg.cg.rel_tol = 1e-8;
  cfg.cg.max_iterations = 400;
  cfg.checkpoint_interval = 8;
  return cfg;
}

TEST(ShardedCgDeadline, MaxAppliesStopsCleanlyAtIterationBoundary) {
  constexpr int kMaxApplies = 9;
  auto cfg = cg_config();
  cfg.cancel = [](int, int applies) { return applies >= kMaxApplies; };
  multidev::ShardedCgSolver solver(kDims, kGaugeSeed, kMass,
                                   multidev::PartitionGrid::along(3, 2), cfg);
  ColorField b(solver.geom(), Parity::Even);
  b.fill_random(77);
  ColorField x(solver.geom(), Parity::Even);
  x.zero();
  const auto res = solver.solve(b, x);
  EXPECT_TRUE(res.cancelled);
  EXPECT_FALSE(res.cg.converged);
  EXPECT_LE(res.applies, kMaxApplies + 1);  // stops at the boundary
  EXPECT_GT(res.cg.iterations, 0);
  EXPECT_GT(norm2(x), 0.0);  // the current iterate is preserved, not wiped
}

TEST(ShardedCgDeadline, CancelHookAbandonsTheSolve) {
  auto cfg = cg_config();
  cfg.cancel = [](int iteration, int) { return iteration >= 3; };
  multidev::ShardedCgSolver solver(kDims, kGaugeSeed, kMass,
                                   multidev::PartitionGrid::along(3, 2), cfg);
  ColorField b(solver.geom(), Parity::Even);
  b.fill_random(77);
  ColorField x(solver.geom(), Parity::Even);
  x.zero();
  const auto res = solver.solve(b, x);
  EXPECT_TRUE(res.cancelled);
  EXPECT_LE(res.cg.iterations, 4);
}

// --- SolverService ----------------------------------------------------------

std::vector<ProblemSpec> catalog() {
  ProblemSpec wide;
  wide.name = "wide-4x4x4x12";
  wide.dims = kDims;
  wide.gauge_seed = kGaugeSeed;
  wide.mass = kMass;
  wide.rel_tol = 1e-6;
  wide.max_iterations = 250;
  wide.checkpoint_interval = 8;
  return {wide};
}

ServiceConfig service_config() {
  ServiceConfig cfg;
  cfg.cluster = {2, 2};
  return cfg;
}

TEST(SolverService, CompletedRequestsAreBitForBitCertified) {
  SolverService svc(catalog(), service_config());
  auto r1 = req(1, "a", 1);
  auto r2 = req(2, "b", 1, 10.0);
  r2.devices = 2;
  const SloReport rep = svc.run("unit-steady", {r1, r2});
  ASSERT_EQ(rep.completed, 2);
  for (const RequestOutcome& o : rep.outcomes) {
    EXPECT_TRUE(o.abft_certified);
    EXPECT_TRUE(o.deadline_met);
    EXPECT_EQ(o.solution_fnv, svc.reference_checksums(o.req.spec, o.req.rhs,
                                                      o.req.source_seed, o.strategy_used));
  }
}

TEST(SolverService, CancellationAfterDispatchFreesTheDevices) {
  SolverService svc(catalog(), service_config());
  auto r1 = req(1, "a", 1);       // dispatched at t=0, runs for thousands of us
  auto r2 = req(2, "a", 1, 50.0); // runs after the cancel frees the device pool
  const SloReport rep = svc.run("unit-cancel", {r1, r2}, {{40.0, 1}});
  ASSERT_EQ(rep.outcomes.size(), 2u);
  const RequestOutcome& o1 = rep.outcomes[0];
  EXPECT_EQ(o1.status, RequestOutcome::Status::cancelled);
  EXPECT_FALSE(o1.reason.empty());
  EXPECT_GE(o1.dispatch_us, 0.0);      // it WAS dispatched when the cancel landed
  EXPECT_EQ(o1.complete_us, 40.0);     // and terminated at the cancel instant
  EXPECT_TRUE(o1.solution_fnv.empty()); // no partial solution is certified
  EXPECT_EQ(rep.outcomes[1].status, RequestOutcome::Status::completed);
}

TEST(SolverService, ShrinksToSurvivorsWhenPreferredCountIsInfeasible) {
  SolverService svc(catalog(), service_config());
  FaultPlan plan;
  plan.seed = 5;
  // d1 and d3 die at their first idle health check: no node retains two
  // usable devices, so a 2-device request must shrink to a single survivor.
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 0, 1, "serve/device d1"});
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 0, 1, "serve/device d3"});
  auto r = req(1, "a", 1, 100.0);
  r.devices = 2;
  SloReport rep;
  {
    ScopedFaultInjection fi(plan);
    rep = svc.run("unit-shrink", {r});
  }
  ASSERT_EQ(rep.completed, 1);
  const RequestOutcome& o = rep.outcomes[0];
  EXPECT_EQ(o.devices, "d0");
  EXPECT_EQ(o.grid, "1x1x1x1");
  EXPECT_EQ(o.solution_fnv,
            svc.reference_checksums(0, 1, o.req.source_seed, o.strategy_used));
  bool shrank = false, lost = false;
  for (const DegradationEvent& d : rep.degradations) {
    shrank = shrank || d.kind == "shrink-to-survivors";
    lost = lost || d.kind == "device-lost";
  }
  EXPECT_TRUE(shrank);
  EXPECT_TRUE(lost);
}

TEST(SolverService, BreakerTripsAndRecoversUnderDeviceStorm) {
  SolverService svc(catalog(), service_config());
  FaultPlan plan;
  plan.seed = 7;
  // Rank 1 of every 2-device grid faults at every in-solve device check:
  // completions keep charging the physical device behind rank 1 until its
  // breaker trips; half-open probes (which draw no faults here) recover it.
  plan.schedule.push_back(
      ScheduledFault{FaultKind::device_loss, 0, 1'000'000, "device r1 @"});
  std::vector<SolveRequest> traffic;
  for (std::uint64_t i = 0; i < 8; ++i) {
    auto r = req(100 + i, i % 2 == 0 ? "a" : "b", 1, 3000.0 * static_cast<double>(i));
    r.devices = 2;
    r.retry_budget = 2;
    traffic.push_back(r);
  }
  SloReport rep;
  {
    ScopedFaultInjection fi(plan);
    rep = svc.run("unit-breaker", traffic);
  }
  EXPECT_EQ(rep.completed + rep.shed, rep.submitted);
  int open = 0, half_open = 0, closed = 0;
  for (const BreakerEvent& e : rep.breaker_events) {
    open += e.to == BreakerState::open ? 1 : 0;
    half_open += e.to == BreakerState::half_open ? 1 : 0;
    closed += e.to == BreakerState::closed ? 1 : 0;
  }
  EXPECT_GE(open, 1);       // the storm trips a breaker...
  EXPECT_GE(half_open, 1);  // ...cooloff elapses on the simulated clock...
  EXPECT_GE(closed, 1);     // ...and a successful probe closes it again
  for (const RequestOutcome& o : rep.outcomes) {
    if (o.status == RequestOutcome::Status::completed) {
      EXPECT_EQ(o.solution_fnv, svc.reference_checksums(o.req.spec, o.req.rhs,
                                                        o.req.source_seed, o.strategy_used));
    }
  }
}

TEST(SolverService, ShedsWithRecoveryExhaustedWhenTheLadderFails) {
  // A fault no recovery tier can outrun — every Dslash launch sticks
  // forever, so retries, fallbacks and failovers all fail on every grid —
  // must surface as a *shed* with ShedReason::recovery_exhausted, carrying
  // the solver's structured detail.  Never a hang, never a certified wrong
  // answer.
  SolverService svc(catalog(), service_config());
  FaultPlan plan;
  plan.seed = 11;
  plan.schedule.push_back(
      ScheduledFault{FaultKind::sticky_fault, 0, 100'000'000, "dslash-"});
  auto r = req(1, "a", 1);
  r.retry_budget = 0;  // shed on the first exhaustion instead of re-dispatching
  SloReport rep;
  {
    ScopedFaultInjection fi(plan);
    rep = svc.run("unit-exhaust", {r});
  }
  ASSERT_EQ(rep.outcomes.size(), 1u);
  const RequestOutcome& o = rep.outcomes[0];
  EXPECT_EQ(o.status, RequestOutcome::Status::shed);
  EXPECT_EQ(o.reason, std::string(to_string(ShedReason::recovery_exhausted)));
  EXPECT_TRUE(o.solution_fnv.empty()) << "a shed request certifies nothing";
  EXPECT_FALSE(o.abft_certified);
  bool exhausted_detail = false;
  for (const DegradationEvent& d : rep.degradations) {
    if (d.kind == "shed" &&
        d.detail.find("recovery ladder exhausted") != std::string::npos) {
      exhausted_detail = true;
    }
  }
  EXPECT_TRUE(exhausted_detail);
  EXPECT_EQ(rep.shed, 1);
  EXPECT_EQ(rep.completed, 0);
}

TEST(SolverService, NodeHealRejoinsTheNodeAndItsDevicesThroughProbation) {
  // Node n1 dies at its second idle health check and heals at its third heal
  // consult.  The node and both of its devices return half-open, each probe
  // closes its breaker, and only then does traffic land on d2+d3 again.
  SolverService svc(catalog(), service_config());
  FaultPlan plan;
  plan.seed = 13;
  plan.schedule.push_back(ScheduledFault{FaultKind::node_loss, 1, 1, "serve/node n1"});
  plan.schedule.push_back(ScheduledFault{FaultKind::heal, 2, 1, "heal/node n1"});
  std::vector<SolveRequest> traffic;
  for (std::uint64_t i = 0; i < 8; ++i) {
    auto r = req(300 + i, i % 2 == 0 ? "a" : "b", 1, 3000.0 * static_cast<double>(i));
    r.devices = 2;
    traffic.push_back(r);
  }
  const auto run_once = [&] {
    ScopedFaultInjection fi(plan);
    return svc.run("unit-node-heal", traffic);
  };
  const SloReport rep = run_once();
  EXPECT_EQ(rep.nodes_rejoined, 1);
  EXPECT_EQ(rep.devices_rejoined, 2);
  EXPECT_GT(rep.recovery_time_us, 0.0);

  std::size_t lost = rep.degradations.size(), rejoined = rep.degradations.size();
  for (std::size_t i = 0; i < rep.degradations.size(); ++i) {
    if (rep.degradations[i].kind == "node-lost" && lost == rep.degradations.size()) lost = i;
    if (rep.degradations[i].kind == "node-rejoined" && rejoined == rep.degradations.size())
      rejoined = i;
  }
  ASSERT_LT(rejoined, rep.degradations.size());
  EXPECT_LT(lost, rejoined);
  const double healed_at = rep.degradations[rejoined].at_us;

  for (const char* name : {"n1", "d2", "d3"}) {
    bool half_open = false, closed_after = false;
    for (const BreakerEvent& e : rep.breaker_events) {
      if (e.resource != name) continue;
      half_open = half_open || e.to == BreakerState::half_open;
      closed_after = closed_after || (half_open && e.to == BreakerState::closed);
    }
    EXPECT_TRUE(half_open) << name;
    EXPECT_TRUE(closed_after) << name;
  }

  bool back_on_n1 = false;
  for (const RequestOutcome& o : rep.outcomes) {
    back_on_n1 = back_on_n1 || (o.dispatch_us > healed_at && o.devices == "d2+d3");
    if (o.status == RequestOutcome::Status::completed) {
      EXPECT_EQ(o.solution_fnv, svc.reference_checksums(o.req.spec, o.req.rhs,
                                                        o.req.source_seed, o.strategy_used));
    }
  }
  EXPECT_TRUE(back_on_n1);
  EXPECT_EQ(run_once().canonical(), rep.canonical());
}

TEST(SolverService, SameSeedReplayProducesIdenticalSloReport) {
  SolverService svc(catalog(), service_config());
  FaultPlan plan;
  plan.seed = 2024;
  plan.p_msg_drop = 0.02;
  plan.p_msg_corrupt = 0.02;
  plan.p_serve = 0.05;
  std::vector<SolveRequest> traffic;
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto r = req(200 + i, i % 2 == 0 ? "a" : "b", 1 + static_cast<int>(i % 2),
                 2000.0 * static_cast<double>(i));
    r.devices = i % 2 == 0 ? 1 : 2;
    traffic.push_back(r);
  }
  const auto run_once = [&] {
    ScopedFaultInjection fi(plan);
    return svc.run("unit-replay", traffic);
  };
  const SloReport a = run_once();
  const SloReport b = run_once();
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_EQ(a.canonical(), b.canonical());
}

}  // namespace
}  // namespace milc::serve
