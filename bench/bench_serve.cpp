// bench_serve.cpp — chaos-traffic driver of the serving tier.
//
// Replays deterministic traffic scenarios against the SolverService:
//
//   steady        well-spaced mixed-size traffic, no faults (the baseline);
//   bursty        a burst at t=0 overrunning quotas/capacity, tight and
//                 zero deadlines, a duplicate id, queued+inflight cancels;
//   hot-tenant    one tenant flooding the queue while two polite tenants
//                 must still meet their deadlines (fairness under quotas);
//   storm-device  every 2-device solve loses rank 1 mid-solve (failover),
//                 breakers trip on the repeated faults and recover through
//                 half-open probes; one device dies for good mid-run;
//   storm-node    node n1 faults every multi-node solve, then dies for good
//                 — shrink-to-survivors carries the remaining traffic;
//   chaos-<seed>  probabilistic wire + device + node + control-plane storm.
//
// Exit is nonzero unless, in every scenario, every submitted request is
// enumerated exactly once, every completed request is ABFT-certified and
// bit-for-bit equal to a fault-free reference solve, every non-completed
// request carries an explicit reason, and the seeded scenarios replay to
// byte-identical SloReport::canonical() strings.
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "lattice/io.hpp"
#include "serve/service.hpp"

namespace milc::serve {
namespace {

using bench::JsonSink;
using faultsim::FaultKind;
using faultsim::FaultPlan;
using faultsim::ScheduledFault;
using faultsim::ScopedFaultInjection;

int g_failures = 0;

bool check(bool ok, const char* scenario, const std::string& what) {
  if (!ok) {
    std::printf("  FAIL [%s] %s\n", scenario, what.c_str());
    ++g_failures;
  }
  return ok;
}

struct Scenario {
  std::string name;
  bool install_plan = false;
  FaultPlan plan;
  std::vector<SolveRequest> traffic;
  std::vector<CancelEvent> cancels;
  bool replay_check = false;    ///< run twice, require identical canonical()
  bool expect_trip = false;     ///< at least one breaker must open
  bool expect_recovery = false; ///< ...and at least one must reach half-open
  bool use_spares = false;      ///< run against the hot-spare service instance
  int min_completed = 0;
  /// Scenario-specific extra assertion (fairness rows, degradation kinds...).
  bool (*extra)(const SloReport&) = nullptr;
};

SolveRequest mk(std::uint64_t id, const char* tenant, int priority, double submit_us,
                double deadline_us, int spec, int devices, int rhs = 1, int retry = 1) {
  SolveRequest r;
  r.id = id;
  r.tenant = tenant;
  r.priority = priority;
  r.submit_us = submit_us;
  r.deadline_us = deadline_us;
  r.spec = spec;
  r.devices = devices;
  r.rhs = rhs;
  r.retry_budget = retry;
  r.source_seed = 700 + id * 13;
  return r;
}

/// Fault-free reference solutions, cached across scenarios and replays.
class RefCache {
 public:
  explicit RefCache(const SolverService& svc) : svc_(svc) {}

  const std::vector<std::uint64_t>& get(int spec, int rhs, std::uint64_t seed,
                                        Strategy strategy) {
    const auto key = std::make_tuple(spec, rhs, seed, static_cast<int>(strategy));
    auto it = cache_.find(key);
    if (it == cache_.end())
      it = cache_.emplace(key, svc_.reference_checksums(spec, rhs, seed, strategy)).first;
    return it->second;
  }

 private:
  const SolverService& svc_;
  std::map<std::tuple<int, int, std::uint64_t, int>, std::vector<std::uint64_t>> cache_;
};

SloReport run_scenario(SolverService& svc, const Scenario& sc) {
  if (sc.install_plan) {
    ScopedFaultInjection fi(sc.plan);
    return svc.run(sc.name, sc.traffic, sc.cancels);
  }
  return svc.run(sc.name, sc.traffic, sc.cancels);
}

bool verify(const Scenario& sc, const SloReport& rep, RefCache& refs) {
  const char* n = sc.name.c_str();
  bool ok = true;

  // Every submitted request is enumerated exactly once (as a multiset: a
  // duplicate id legitimately appears twice — once admitted, once rejected).
  std::vector<std::uint64_t> want, got;
  for (const SolveRequest& r : sc.traffic) want.push_back(r.id);
  for (const RequestOutcome& o : rep.outcomes) got.push_back(o.req.id);
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  ok &= check(want == got, n, "every submitted request enumerated exactly once");
  ok &= check(rep.submitted == static_cast<int>(sc.traffic.size()), n, "submitted count");
  ok &= check(rep.rejected + rep.completed + rep.shed + rep.cancelled == rep.submitted, n,
              "rejected + completed + shed + cancelled == submitted");

  for (const RequestOutcome& o : rep.outcomes) {
    const std::string tag = "request #" + std::to_string(o.req.id) + " ";
    if (o.status == RequestOutcome::Status::completed) {
      ok &= check(o.abft_certified, n, tag + "completed but not ABFT-certified");
      ok &= check(o.rhs_done == o.req.rhs, n, tag + "completed with missing rhs");
      const auto& ref =
          refs.get(o.req.spec, o.req.rhs, o.req.source_seed, o.strategy_used);
      ok &= check(o.solution_fnv == ref, n,
                  tag + "solution NOT bit-for-bit equal to the fault-free reference");
    } else {
      ok &= check(!o.reason.empty(), n, tag + "dropped without a reason");
    }
  }

  // Every shed decision is enumerated in the degradation log.
  int shed_events = 0;
  for (const DegradationEvent& d : rep.degradations) shed_events += d.kind == "shed" ? 1 : 0;
  ok &= check(shed_events >= rep.shed, n, "every shed enumerated as a degradation event");

  if (sc.expect_trip) {
    int trips = 0, half_opens = 0;
    for (const BreakerEvent& e : rep.breaker_events) {
      trips += e.to == BreakerState::open ? 1 : 0;
      half_opens += e.to == BreakerState::half_open ? 1 : 0;
    }
    ok &= check(trips >= 1, n, "expected at least one breaker trip");
    if (sc.expect_recovery)
      ok &= check(half_opens >= 1, n, "expected a breaker to reach half-open");
  }
  ok &= check(rep.completed >= sc.min_completed, n,
              "completed " + std::to_string(rep.completed) + " < required " +
                  std::to_string(sc.min_completed));
  if (sc.extra != nullptr) ok &= check(sc.extra(rep), n, "scenario-specific assertion");
  return ok;
}

// --- scenario construction ---------------------------------------------------

constexpr int kSmall = 0;  ///< 4x4x4x8  — single-device only
constexpr int kWide = 1;   ///< 4x4x4x12 — up to 2 devices
constexpr int kTall = 2;   ///< 4x4x4x24 — up to 4 devices (multi-node)

Scenario steady() {
  Scenario sc;
  sc.name = "steady";
  sc.min_completed = 6;
  sc.traffic = {
      mk(101, "alice", 1, 0.0, kNoDeadline, kSmall, 1),
      mk(102, "bob", 1, 4000.0, kNoDeadline, kWide, 2),
      mk(103, "alice", 2, 8000.0, 600'000.0, kWide, 1, 2),
      mk(104, "bob", 1, 12000.0, kNoDeadline, kTall, 4),
      mk(105, "alice", 1, 16000.0, kNoDeadline, kSmall, 1),
      mk(106, "bob", 2, 20000.0, kNoDeadline, kWide, 2),
  };
  sc.extra = [](const SloReport& r) {
    return r.shed == 0 && r.rejected == 0 && r.deadline_missed == 0;
  };
  return sc;
}

Scenario bursty() {
  Scenario sc;
  sc.name = "bursty";
  sc.min_completed = 5;
  // Tenant a floods past its queued quota of 6; id 205 is submitted twice;
  // id 210 arrives with an already-expired deadline; id 211's deadline is
  // too tight for even one solve (shed as deadline-unreachable at dispatch).
  sc.traffic = {
      mk(201, "a", 3, 0.0, kNoDeadline, kSmall, 1),
      mk(202, "a", 3, 0.0, kNoDeadline, kSmall, 1),
      mk(203, "a", 2, 0.0, kNoDeadline, kWide, 1),
      mk(204, "a", 2, 0.0, kNoDeadline, kWide, 1),
      mk(205, "a", 1, 0.0, kNoDeadline, kSmall, 1),
      mk(206, "a", 1, 0.0, kNoDeadline, kSmall, 1),
      mk(207, "a", 1, 0.0, kNoDeadline, kSmall, 1),  // 7th queued for a: quota reject
      mk(208, "b", 2, 1.0, kNoDeadline, kWide, 1),
      mk(205, "b", 2, 1.0, kNoDeadline, kSmall, 1),  // duplicate id
      mk(210, "b", 1, 1.0, 1.0, kSmall, 1),          // deadline == submit: dead on arrival
      mk(211, "b", 1, 1.0, 30.0, kWide, 1),          // admitted, then unreachable
      mk(212, "b", 1, 2.0, kNoDeadline, kSmall, 1),
  };
  // 206 is still queued at t=50 (priority 1 behind four dispatches);
  // 201 dispatched at t=0 and runs for thousands of us: inflight cancel.
  sc.cancels = {{50.0, 206}, {60.0, 201}, {70.0, 999}};
  sc.extra = [](const SloReport& r) { return r.cancelled == 2 && r.rejected >= 3; };
  return sc;
}

Scenario hot_tenant() {
  Scenario sc;
  sc.name = "hot-tenant";
  sc.min_completed = 6;
  for (std::uint64_t i = 0; i < 12; ++i)
    sc.traffic.push_back(mk(300 + i, "hog", 1, static_cast<double>(i), kNoDeadline,
                            i % 2 == 0 ? kSmall : kWide, 1));
  for (std::uint64_t i = 0; i < 3; ++i) {
    sc.traffic.push_back(
        mk(320 + i, "alice", 3, 100.0 + 5000.0 * static_cast<double>(i), 900'000.0, kSmall, 1));
    sc.traffic.push_back(
        mk(330 + i, "bob", 2, 200.0 + 5000.0 * static_cast<double>(i), 900'000.0, kWide, 1));
  }
  sc.extra = [](const SloReport& r) {
    // Fairness: the polite tenants complete everything within deadline even
    // while the hog floods; the hog pays the quota rejections.
    bool ok = true;
    for (const TenantSlo& t : r.tenants) {
      if (t.tenant == "alice") ok = ok && t.completed == 3 && t.deadline_missed == 0;
      if (t.tenant == "bob") ok = ok && t.completed == 3 && t.deadline_missed == 0;
      if (t.tenant == "hog") ok = ok && t.rejected >= 1;
    }
    return ok;
  };
  return sc;
}

Scenario storm_device() {
  Scenario sc;
  sc.name = "storm-device";
  sc.install_plan = true;
  sc.replay_check = true;
  sc.expect_trip = true;
  sc.expect_recovery = true;
  sc.min_completed = 6;
  sc.plan.seed = 7;
  // Rank 1 of every multi-device grid is lost at every in-solve device check:
  // each 2-device solve fails over mid-flight, its completion charges a
  // breaker failure against the physical device behind rank 1, and three
  // consecutive charges trip that breaker (then half-open probes recover it).
  sc.plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 0, 1'000'000, "device r1 @"});
  // ...and the serve-tier health check kills d3 for good at its 4th consult.
  sc.plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 3, 1, "serve/device d3"});
  for (std::uint64_t i = 0; i < 10; ++i)
    sc.traffic.push_back(mk(400 + i, i % 2 == 0 ? "a" : "b", 1,
                            3000.0 * static_cast<double>(i), kNoDeadline, kWide, 2, 1, 2));
  sc.extra = [](const SloReport& r) {
    bool failover = false, lost = false;
    for (const DegradationEvent& d : r.degradations) {
      failover = failover || d.kind == "failover";
      lost = lost || d.kind == "device-lost";
    }
    return failover && lost;
  };
  return sc;
}

Scenario storm_node() {
  Scenario sc;
  sc.name = "storm-node";
  sc.install_plan = true;
  sc.replay_check = true;
  sc.min_completed = 5;
  sc.plan.seed = 11;
  // Node n1 faults at every in-solve node check (the " @" suffix keeps the
  // filter off the serve-tier site), then dies for good at the serve tier's
  // 3rd idle consult: 4-device requests shrink to the surviving node.
  sc.plan.schedule.push_back(ScheduledFault{FaultKind::node_loss, 0, 1'000'000, "node n1 @"});
  sc.plan.schedule.push_back(ScheduledFault{FaultKind::node_loss, 2, 1, "serve/node n1"});
  sc.traffic = {
      mk(501, "a", 2, 0.0, kNoDeadline, kTall, 4, 1, 2),
      mk(502, "b", 1, 2000.0, kNoDeadline, kWide, 2, 1, 2),
      mk(503, "a", 1, 4000.0, kNoDeadline, kSmall, 1),
      mk(504, "b", 2, 20000.0, kNoDeadline, kTall, 4, 1, 2),
      mk(505, "a", 1, 24000.0, kNoDeadline, kWide, 2, 1, 2),
      mk(506, "b", 1, 28000.0, kNoDeadline, kSmall, 1),
      mk(507, "a", 1, 32000.0, kNoDeadline, kTall, 4, 1, 2),
  };
  sc.extra = [](const SloReport& r) {
    bool node_lost = false, shrank = false;
    for (const DegradationEvent& d : r.degradations) {
      node_lost = node_lost || d.kind == "node-lost";
      shrank = shrank || d.kind == "shrink-to-survivors";
    }
    return node_lost && shrank;
  };
  return sc;
}

Scenario rejoin_device() {
  Scenario sc;
  sc.name = "rejoin-device";
  sc.install_plan = true;
  sc.replay_check = true;
  sc.min_completed = 8;
  sc.plan.seed = 13;
  // d3 dies at its 2nd serve-tier consult, then heals at the 4th heal
  // consult: the service must put it back in rotation through a half-open
  // probation probe (never straight into traffic), account the outage in
  // recovery_time_us, and carry the later 2-device requests at full width.
  sc.plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 1, 1, "serve/device d3"});
  sc.plan.schedule.push_back(ScheduledFault{FaultKind::heal, 3, 1, "heal/device d3"});
  for (std::uint64_t i = 0; i < 10; ++i)
    sc.traffic.push_back(mk(700 + i, i % 2 == 0 ? "a" : "b", 1,
                            3000.0 * static_cast<double>(i), kNoDeadline, kWide, 2, 1, 2));
  sc.extra = [](const SloReport& r) {
    bool lost = false, rejoined = false, probed_ok = false;
    for (const DegradationEvent& d : r.degradations) {
      lost = lost || d.kind == "device-lost";
      rejoined = rejoined || d.kind == "device-rejoined";
      probed_ok = probed_ok || (d.kind == "probe" && d.detail == "d3 probe ok");
    }
    // The rejoin goes through probation: d3's breaker must reach half-open
    // (begin_probation) and then close on its probe, never trip-free-closed.
    bool probation = false, closed_after = false;
    for (const BreakerEvent& e : r.breaker_events) {
      if (e.resource != "d3") continue;
      if (e.to == BreakerState::half_open) probation = true;
      if (probation && e.to == BreakerState::closed) closed_after = true;
    }
    return lost && rejoined && probed_ok && probation && closed_after &&
           r.devices_rejoined >= 1 && r.recovery_time_us > 0.0;
  };
  return sc;
}

Scenario storm_spare() {
  Scenario sc;
  sc.name = "storm-spare";
  sc.install_plan = true;
  sc.replay_check = true;
  sc.use_spares = true;
  sc.min_completed = 6;
  sc.plan.seed = 7;
  // The same rank-1 storm as storm-device, but the service advertises one
  // hot spare per node: every lost shard re-replicates onto the spare and
  // the solves finish at full grid width instead of shrinking.
  sc.plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 0, 1'000'000, "device r1 @"});
  for (std::uint64_t i = 0; i < 8; ++i)
    sc.traffic.push_back(mk(800 + i, i % 2 == 0 ? "a" : "b", 1,
                            3000.0 * static_cast<double>(i), kNoDeadline, kWide, 2, 1, 2));
  sc.extra = [](const SloReport& r) {
    bool rereplicated = false;
    for (const DegradationEvent& d : r.degradations)
      rereplicated = rereplicated || d.kind == "re-replication";
    return rereplicated && r.spares_consumed >= 1 && r.rereplicated_bytes > 0;
  };
  return sc;
}

Scenario chaos(std::uint64_t seed) {
  Scenario sc;
  sc.name = "chaos-" + std::to_string(seed);
  sc.install_plan = true;
  sc.replay_check = true;
  sc.min_completed = 1;
  sc.plan.seed = seed;
  // Wire, device, node and control-plane chaos.  Kernel-strategy faults
  // (launch_fail / sticky / bit_flip) are deliberately absent: their
  // recovery is 1e-9-accurate rather than bit-exact, and the serving tier's
  // oracle is bit-for-bit (docs/RESILIENCE.md, "Traffic failure model").
  sc.plan.p_msg_drop = 0.02;
  sc.plan.p_msg_corrupt = 0.02;
  sc.plan.p_msg_delay = 0.02;
  sc.plan.p_device_loss = 0.0005;
  sc.plan.p_node_loss = 0.0002;
  sc.plan.p_serve = 0.02;
  for (std::uint64_t i = 0; i < 12; ++i) {
    const int spec = static_cast<int>(i % 3);
    const int devices = spec == kSmall ? 1 : (spec == kWide ? 2 : 4);
    const double submit = 2500.0 * static_cast<double>(i);
    const double deadline = i % 4 == 3 ? submit + 9'000.0 : kNoDeadline;
    sc.traffic.push_back(mk(600 + i, i % 3 == 0 ? "a" : (i % 3 == 1 ? "b" : "c"),
                            1 + static_cast<int>(i % 3), submit, deadline, spec, devices, 1,
                            2));
  }
  return sc;
}

int serve_main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);

  std::printf("== bench_serve: resilient multi-tenant solver service ==\n");

  std::vector<ProblemSpec> catalog(3);
  catalog[kSmall] = {"small-4x4x4x8", Coords{4, 4, 4, 8}, 31, 0.5, 1e-6, 250, 8};
  catalog[kWide] = {"wide-4x4x4x12", Coords{4, 4, 4, 12}, 31, 0.5, 1e-6, 250, 8};
  catalog[kTall] = {"tall-4x4x4x24", Coords{4, 4, 4, 24}, 31, 0.5, 1e-6, 250, 8};

  ServiceConfig scfg;
  scfg.cluster = {2, 2};
  scfg.queue.capacity = 14;
  scfg.queue.tenant_max_queued = 6;
  scfg.queue.tenant_max_inflight = 2;

  // A second service instance advertising one hot spare per node — the
  // storm-spare scenario runs here so lost shards re-replicate instead of
  // shrinking, while every other scenario keeps the spare-free baseline.
  ServiceConfig spcfg = scfg;
  spcfg.spares.devices_per_node = 1;

  SolverService svc(catalog, scfg);
  SolverService svc_spares(std::move(catalog), spcfg);
  for (int s = 0; s < 3; ++s) {
    std::printf("  catalog[%d] %-14s priced:", s, svc.catalog()[static_cast<std::size_t>(s)].name.c_str());
    for (const auto& p : svc.placements(s))
      std::printf("  %ddev %s %.1f us/iter", p.devices, p.grid.label().c_str(), p.per_iter_us);
    std::printf("\n");
  }

  RefCache refs(svc);
  JsonSink json(opt.json_path, "bench_serve");
  json.meta("chaos_seed", opt.chaos_seed);

  std::vector<Scenario> scenarios = {steady(),       bursty(),      hot_tenant(),
                                     storm_device(), storm_node(),  rejoin_device(),
                                     storm_spare(),  chaos(opt.chaos_seed)};
  for (const Scenario& sc : scenarios) {
    std::printf("\n-- scenario %s --\n", sc.name.c_str());
    SolverService& target = sc.use_spares ? svc_spares : svc;
    const SloReport rep = run_scenario(target, sc);
    std::printf("%s", rep.summary().c_str());
    verify(sc, rep, refs);

    if (sc.replay_check) {
      const SloReport replay = run_scenario(target, sc);
      check(rep.canonical() == replay.canonical(), sc.name.c_str(),
            "same-seed replay must reproduce an identical SloReport");
    }

    json.begin_row();
    json.field("scenario", sc.name);
    json.field("submitted", static_cast<std::int64_t>(rep.submitted));
    json.field("rejected", static_cast<std::int64_t>(rep.rejected));
    json.field("completed", static_cast<std::int64_t>(rep.completed));
    json.field("shed", static_cast<std::int64_t>(rep.shed));
    json.field("cancelled", static_cast<std::int64_t>(rep.cancelled));
    json.field("deadline_met", static_cast<std::int64_t>(rep.deadline_met));
    json.field("deadline_missed", static_cast<std::int64_t>(rep.deadline_missed));
    json.field("p50_latency_us", rep.p50_latency_us);
    json.field("p99_latency_us", rep.p99_latency_us);
    json.field("makespan_us", rep.makespan_us);
    json.field("faults_injected", static_cast<std::int64_t>(rep.faults_injected));
    json.field("degradations", static_cast<std::int64_t>(rep.degradations.size()));
    json.field("breaker_events", static_cast<std::int64_t>(rep.breaker_events.size()));
    json.field("spares_consumed", static_cast<std::int64_t>(rep.spares_consumed));
    json.field("rejoins", static_cast<std::int64_t>(rep.rejoins));
    json.field("devices_rejoined", static_cast<std::int64_t>(rep.devices_rejoined));
    json.field("nodes_rejoined", static_cast<std::int64_t>(rep.nodes_rejoined));
    json.field("recovery_time_us", rep.recovery_time_us);
    json.field("rereplicated_bytes", rep.rereplicated_bytes);
    json.field("canonical_fnv",
               io::fnv1a(rep.canonical().data(), rep.canonical().size(), kFnvBasis));
    json.end_row();
    for (const RequestOutcome& o : rep.outcomes) {
      json.begin_row();
      json.field("scenario", sc.name);
      json.field("id", static_cast<std::uint64_t>(o.req.id));
      json.field("tenant", o.req.tenant);
      json.field("priority", static_cast<std::int64_t>(o.req.priority));
      json.field("status", std::string(o.status_str()));
      json.field("reason", o.reason);
      json.field("latency_us", o.latency_us);
      json.field("deadline_met", static_cast<std::int64_t>(o.deadline_met ? 1 : 0));
      json.field("devices", o.devices);
      json.field("grid", o.grid);
      json.field("strategy", std::string(to_string(o.strategy_used)));
      json.field("faults", static_cast<std::int64_t>(o.faults_observed));
      json.field("abft", static_cast<std::int64_t>(o.abft_certified ? 1 : 0));
      json.end_row();
    }
  }

  std::printf("\n== bench_serve: %s (%d failed checks) ==\n",
              g_failures == 0 ? "ALL SCENARIOS PASS" : "FAILURES", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace milc::serve

int main(int argc, char** argv) { return milc::serve::serve_main(argc, argv); }
