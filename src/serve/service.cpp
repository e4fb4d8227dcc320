#include "serve/service.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "core/problem.hpp"
#include "lattice/io.hpp"
#include "tune/session.hpp"

namespace milc::serve {

using multidev::MultiDeviceRunner;
using multidev::MultiDevRequest;
using multidev::PartitionGrid;
using multidev::ShardedCgConfig;
using multidev::ShardedCgResult;
using multidev::ShardedCgSolver;

namespace {

constexpr double kDispatchOverheadUs = 25.0;  ///< control-plane cost per dispatch
/// A dispatch whose deadline buys fewer operator applications than this (per
/// right-hand side) is hopeless: shed as deadline-unreachable instead of
/// burning devices on it.
constexpr int kMinAppliesPerRhs = 4;
/// The strategy-fallback degradation step's last rung: rung 0 is the
/// request's own strategy, rung k is kFallbackLadder[k], clamped here.
constexpr int kLastRung = static_cast<int>(kFallbackLadder.size()) - 1;

/// Requeue backoff after `attempts` dispatches: 500 us doubling per attempt.
double requeue_backoff_us(int attempts) {
  return 500.0 * std::pow(2.0, static_cast<double>(attempts - 1));
}

ShardedCgConfig solver_config(const ProblemSpec& sp, Strategy strategy,
                              const gpusim::NodeTopology& topo) {
  ShardedCgConfig c;
  c.cg.rel_tol = sp.rel_tol;
  c.cg.max_iterations = sp.max_iterations;
  c.checkpoint_interval = sp.checkpoint_interval;
  c.strategy = strategy;
  c.topo = topo;
  return c;
}

/// First "<prefix><digits>" occurrence in `site` where the prefix letter
/// starts a token (begin of string or after a space); -1 when absent.
int parse_indexed(const std::string& site, char prefix) {
  for (std::size_t i = 0; i < site.size(); ++i) {
    if (site[i] != prefix) continue;
    if (i > 0 && site[i - 1] != ' ') continue;
    if (i + 1 >= site.size() || std::isdigit(static_cast<unsigned char>(site[i + 1])) == 0)
      continue;
    int v = 0;
    for (std::size_t j = i + 1;
         j < site.size() && std::isdigit(static_cast<unsigned char>(site[j])) != 0; ++j)
      v = v * 10 + (site[j] - '0');
    return v;
  }
  return -1;
}

std::string device_label(const std::vector<int>& devs) {
  std::string s;
  for (int d : devs) {
    if (!s.empty()) s += '+';
    s += 'd';
    s += std::to_string(d);
  }
  return s;
}

}  // namespace

SolverService::SolverService(std::vector<ProblemSpec> catalog, ServiceConfig cfg)
    : catalog_(std::move(catalog)),
      cfg_(cfg),
      topo_(gpusim::cluster(cfg.cluster.nodes, cfg.cluster.devices_per_node)),
      gauges_(catalog_.size()),
      queue_(cfg.queue) {
  // Hot-spare inventory rides on the topology: effective_topology() copies it
  // into every dispatched solve, so the hardened runner re-replicates lost
  // shards onto standbys instead of shrinking the placement's grid.
  topo_.spares = cfg_.spares;
  price_catalog();
  reset_runtime_state();
}

void SolverService::price_catalog() {
  placements_.resize(catalog_.size());
  pricing_ = {};
  const MultiDeviceRunner runner;
  tune::TuneSession* sess = tune::TuneSession::current();
  for (std::size_t i = 0; i < catalog_.size(); ++i) {
    const ProblemSpec& sp = catalog_[i];
    DslashProblem prob(sp.dims, sp.gauge_seed);
    for (int k = 1; k <= cfg_.cluster.total(); ++k) {
      // The dispatcher places either within one node or on whole nodes.
      if (k > cfg_.cluster.devices_per_node && k % cfg_.cluster.devices_per_node != 0)
        continue;
      const gpusim::NodeTopology etopo = multidev::effective_topology(topo_, k);

      // The grid: a cached decision (warm start, no candidate scored) or the
      // cheapest enumerated one.  Either way it is profiled once; a cached
      // cost must then reproduce bit for bit, a fresh one is recorded.
      tune::TuneKey key;
      const tune::TuneEntry* hit = nullptr;
      if (sess != nullptr) {
        key.arch = tune::arch_fingerprint(gpusim::a100());
        key.geom = tune::geom_signature(sp.dims[0], sp.dims[1], sp.dims[2], sp.dims[3],
                                        /*even_target=*/true);
        key.kernel = "placement";
        key.config = "seed" + std::to_string(sp.gauge_seed);
        key.devices = k;
        key.topo = tune::topo_signature(etopo.nodes, etopo.devices_per_node);
        hit = sess->lookup(key);
      }
      PartitionGrid grid;
      if (hit != nullptr) {
        if (!PartitionGrid::from_label(hit->grid, grid) ||
            !multidev::partition_error(prob.geom(), grid).empty()) {
          throw tune::ReplayMismatch(key.canonical() + " (grid '" + hit->grid + "')",
                                     hit->per_iter_us, 0.0);
        }
      } else {
        const auto grids = multidev::enumerate_grids(prob.geom(), k);
        if (grids.empty()) continue;
        double best_cost = 0.0;
        for (std::size_t g = 0; g < grids.size(); ++g) {
          const double cost = multidev::score_grid(prob.geom(), grids[g], etopo).cost_us;
          if (g == 0 || cost < best_cost) {
            grid = grids[g];
            best_cost = cost;
          }
        }
        pricing_.grids_scored += static_cast<int>(grids.size());
      }
      MultiDevRequest mreq;
      mreq.grid = grid;
      mreq.req.iterations = 1;
      mreq.topo = etopo;
      const double per_iter_us = runner.run(prob, mreq).per_iter_us;
      if (hit != nullptr) {
        sess->verify(key, *hit, per_iter_us);
        ++pricing_.cache_hits;
      } else if (sess != nullptr) {
        ++pricing_.cache_misses;
        tune::TuneEntry entry;
        entry.grid = grid.label();
        entry.per_iter_us = per_iter_us;
        sess->record(key, entry);
      }
      placements_[i].push_back({k, grid, per_iter_us});
      ++pricing_.placements_priced;
    }
  }
}

const GaugeConfiguration& SolverService::gauge(int spec) {
  std::optional<GaugeConfiguration>& g = gauges_[static_cast<std::size_t>(spec)];
  if (!g) {
    const ProblemSpec& sp = catalog_[static_cast<std::size_t>(spec)];
    g = GaugeConfiguration::random(LatticeGeom(sp.dims), sp.gauge_seed);
  }
  return *g;
}

int SolverService::max_priced_devices(int spec) const {
  int m = 1;
  for (const Placement& p : placements_[static_cast<std::size_t>(spec)])
    m = std::max(m, p.devices);
  return m;
}

void SolverService::reset_runtime_state() {
  queue_ = AdmissionQueue(cfg_.queue);
  resources_.clear();
  inflight_.clear();
  tenant_busy_us_.clear();
  for (int k = 0; k < cfg_.cluster.total(); ++k)
    resources_.push_back({CircuitBreaker("d" + std::to_string(k))});
  for (int j = 0; j < cfg_.cluster.nodes; ++j)
    resources_.push_back({CircuitBreaker("n" + std::to_string(j))});
}

int SolverService::alive_devices() const {
  int n = 0;
  for (int k = 0; k < cfg_.cluster.total(); ++k) n += device(k).alive ? 1 : 0;
  return n;
}

std::vector<std::uint64_t> SolverService::reference_checksums(int spec, int rhs,
                                                              std::uint64_t source_seed,
                                                              Strategy strategy) const {
  const ProblemSpec& sp = catalog_[static_cast<std::size_t>(spec)];
  const ShardedCgConfig scfg = solver_config(sp, strategy, gpusim::NodeTopology{});
  ShardedCgSolver solver(sp.dims, sp.gauge_seed, sp.mass,
                         placements_[static_cast<std::size_t>(spec)].front().grid, scfg);
  std::vector<std::uint64_t> fnv;
  for (int r = 0; r < rhs; ++r) {
    ColorField b(solver.geom(), Parity::Even);
    b.fill_random(source_seed + static_cast<std::uint64_t>(r));
    ColorField x(solver.geom(), Parity::Even);
    x.zero();
    const ShardedCgResult res = solver.solve(b, x);
    (void)res;
    fnv.push_back(io::fnv1a(x.data(), x.bytes(), kFnvBasis));
  }
  return fnv;
}

// --- the event loop ---------------------------------------------------------

SloReport SolverService::run(const std::string& scenario, std::vector<SolveRequest> traffic,
                             std::vector<CancelEvent> cancels) {
  reset_runtime_state();

  SloReport rep;
  rep.scenario = scenario;
  faultsim::Injector* inj = faultsim::Injector::current();
  rep.fault_seed = inj != nullptr ? inj->plan().seed : 0;
  const std::size_t fault_mark = inj != nullptr ? inj->log().size() : 0;

  std::stable_sort(traffic.begin(), traffic.end(),
                   [](const SolveRequest& a, const SolveRequest& b) {
                     if (a.submit_us != b.submit_us) return a.submit_us < b.submit_us;
                     return a.id < b.id;
                   });
  std::stable_sort(cancels.begin(), cancels.end(),
                   [](const CancelEvent& a, const CancelEvent& b) {
                     if (a.at_us != b.at_us) return a.at_us < b.at_us;
                     return a.id < b.id;
                   });

  double now = 0.0;
  std::size_t ai = 0, ci = 0;
  const auto pending = [&] {
    return ai < traffic.size() || ci < cancels.size() || !inflight_.empty() ||
           !queue_.empty();
  };

  while (pending()) {
    for (Resource& r : resources_) r.breaker.poll(now);

    // Completions due, earliest (then lowest id) first.
    for (;;) {
      int best = -1;
      for (std::size_t i = 0; i < inflight_.size(); ++i) {
        if (inflight_[i].complete_us > now) continue;
        if (best < 0 || inflight_[i].complete_us < inflight_[static_cast<std::size_t>(best)].complete_us ||
            (inflight_[i].complete_us == inflight_[static_cast<std::size_t>(best)].complete_us &&
             inflight_[i].req.id < inflight_[static_cast<std::size_t>(best)].req.id))
          best = static_cast<int>(i);
      }
      if (best < 0) break;
      Inflight f = std::move(inflight_[static_cast<std::size_t>(best)]);
      inflight_.erase(inflight_.begin() + best);
      process_completion(rep, std::move(f), now);
    }

    while (ci < cancels.size() && cancels[ci].at_us <= now)
      process_cancel(rep, cancels[ci++], now);
    while (ai < traffic.size() && traffic[ai].submit_us <= now)
      process_arrival(rep, traffic[ai++], now);

    health_checks(rep, now);
    run_probes(rep, now);
    sweep_queue(rep, now);
    dispatch_ready(rep, now);

    if (!pending()) break;
    const double next = next_event_time(now, ai, ci, traffic, cancels);
    if (next == kNoDeadline) {
      // Nothing will ever wake the scheduler again: terminal shed.
      for (SolveRequest& r : queue_.drain())
        shed(rep, r, ShedReason::no_capacity, "scheduler stalled with no capacity", now);
      break;
    }
    now = next;
  }

  rep.makespan_us = now;
  if (inj != nullptr) rep.faults_injected = inj->log().size() - fault_mark;

  for (const Resource& r : resources_)
    rep.breaker_events.insert(rep.breaker_events.end(), r.breaker.events().begin(),
                              r.breaker.events().end());
  std::stable_sort(rep.breaker_events.begin(), rep.breaker_events.end(),
                   [](const BreakerEvent& a, const BreakerEvent& b) {
                     if (a.at_us != b.at_us) return a.at_us < b.at_us;
                     return a.resource < b.resource;
                   });

  for (const auto& [tenant, busy] : tenant_busy_us_) {
    TenantSlo t;
    t.tenant = tenant;
    t.busy_device_us = busy;
    rep.tenants.push_back(t);
  }
  rep.finalize();
  return rep;
}

void SolverService::process_arrival(SloReport& rep, const SolveRequest& req, double now) {
  RequestOutcome out;
  out.req = req;
  out.status = RequestOutcome::Status::rejected;
  if (req.spec < 0 || req.spec >= static_cast<int>(catalog_.size())) {
    out.reason = to_string(RejectReason::invalid_spec);
    rep.outcomes.push_back(std::move(out));
    return;
  }
  faultsim::Injector* inj = faultsim::Injector::current();
  if (inj != nullptr &&
      inj->on_serve_check("serve/queue [" + std::to_string(req.id) + "] " + req.tenant)) {
    out.reason = to_string(RejectReason::admission_fault);
    rep.outcomes.push_back(std::move(out));
    return;
  }
  const AdmissionVerdict v = queue_.admit(req, now);
  if (!v.admitted) {
    out.reason = to_string(v.reason);
    rep.outcomes.push_back(std::move(out));
  }
  // Admitted requests reach the outcome list at their terminal state.
}

void SolverService::process_cancel(SloReport& rep, const CancelEvent& ev, double now) {
  SolveRequest q;
  if (queue_.cancel(ev.id, &q)) {
    RequestOutcome out;
    out.req = q;
    out.status = RequestOutcome::Status::cancelled;
    out.reason = to_string(ShedReason::cancelled_by_client);
    out.complete_us = now;
    rep.outcomes.push_back(std::move(out));
    degrade(rep, now, ev.id, "cancel", "cancelled while queued");
    return;
  }
  for (std::size_t i = 0; i < inflight_.size(); ++i) {
    if (inflight_[i].req.id != ev.id) continue;
    Inflight f = std::move(inflight_[i]);
    inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(i));
    for (int d : f.devs) device(d).busy_until = std::min(device(d).busy_until, now);
    queue_.mark_done(f.req);
    RequestOutcome out = std::move(f.outcome);
    out.status = RequestOutcome::Status::cancelled;
    out.reason = to_string(ShedReason::cancelled_by_client);
    out.complete_us = now;
    out.solution_fnv.clear();  // an aborted solve delivers nothing
    rep.outcomes.push_back(std::move(out));
    degrade(rep, now, ev.id, "cancel", "cancelled in flight on " + device_label(f.devs));
    return;
  }
  degrade(rep, now, ev.id, "cancel", "unknown or finished id; ignored");
}

void SolverService::health_checks(SloReport& rep, double now) {
  faultsim::Injector* inj = faultsim::Injector::current();
  if (inj == nullptr) return;
  const int dpn = cfg_.cluster.devices_per_node;
  const auto lose = [now](Resource& r) {
    r.alive = false;
    r.down_since = now;
  };
  for (int k = 0; k < cfg_.cluster.total(); ++k) {
    Resource& d = device(k);
    if (!d.alive || d.busy_until > now) continue;
    if (inj->on_device_check("serve/device " + d.breaker.resource())) {
      lose(d);
      degrade(rep, now, 0, "device-lost", d.breaker.resource() + " lost (serve-tier check)");
    }
  }
  for (int j = 0; j < cfg_.cluster.nodes; ++j) {
    Resource& n = node(j);
    if (!n.alive) continue;
    bool all_idle = true;
    for (int k = j * dpn; k < (j + 1) * dpn; ++k)
      all_idle = all_idle && device(k).busy_until <= now;
    if (!all_idle) continue;
    if (inj->on_node_check("serve/node " + n.breaker.resource())) {
      lose(n);
      for (int k = j * dpn; k < (j + 1) * dpn; ++k) lose(device(k));
      degrade(rep, now, 0, "node-lost",
              n.breaker.resource() + " lost with all its devices (serve-tier check)");
    }
  }

  // Heal checks — the elastic-recovery return path.  A healed resource never
  // goes straight back into traffic: its breaker is forced into half-open
  // probation, so capacity returns through a rejoin probe (run_probes) that
  // must succeed first.  Heal draws come from the injector's dedicated heal
  // stream, so consulting them never perturbs the loss draws above.
  const auto rejoin = [&rep, now](Resource& r, int& rejoined) {
    r.alive = true;
    r.breaker.begin_probation(now, "rejoined after heal; probing before traffic");
    if (r.down_since >= 0.0) rep.recovery_time_us += now - r.down_since;
    r.down_since = -1.0;
    ++rejoined;
  };
  for (int k = 0; k < cfg_.cluster.total(); ++k) {
    Resource& d = device(k);
    // A device that died with its node returns with its node, not alone.
    if (d.alive || d.down_since >= now || !node(k / dpn).alive) continue;
    if (inj->on_heal_check("heal/device " + d.breaker.resource())) {
      rejoin(d, rep.devices_rejoined);
      degrade(rep, now, 0, "device-rejoined",
              d.breaker.resource() + " healed; half-open probation");
    }
  }
  for (int j = 0; j < cfg_.cluster.nodes; ++j) {
    Resource& n = node(j);
    if (n.alive || n.down_since >= now) continue;
    if (inj->on_heal_check("heal/node " + n.breaker.resource())) {
      rejoin(n, rep.nodes_rejoined);
      for (int k = j * dpn; k < (j + 1) * dpn; ++k)
        if (!device(k).alive) rejoin(device(k), rep.devices_rejoined);
      degrade(rep, now, 0, "node-rejoined",
              n.breaker.resource() + " healed with its devices; half-open probation");
    }
  }
}

void SolverService::run_probes(SloReport& rep, double now) {
  faultsim::Injector* inj = faultsim::Injector::current();
  for (Resource& r : resources_) {
    CircuitBreaker& b = r.breaker;
    if (!r.alive || !b.probe_allowed()) continue;
    const int token = b.probe_started();
    if (inj != nullptr && inj->on_serve_check("serve/probe " + b.resource())) {
      b.on_probe_failure(now, "injected probe fault", token);
      degrade(rep, now, 0, "probe", b.resource() + " probe failed");
    } else {
      b.on_probe_success(now, token);
      degrade(rep, now, 0, "probe", b.resource() + " probe ok");
    }
  }
}

void SolverService::sweep_queue(SloReport& rep, double now) {
  for (SolveRequest& r : queue_.sweep_expired(now))
    shed(rep, r, ShedReason::deadline_expired_in_queue,
         "deadline " + std::to_string(r.deadline_us) + " us passed while queued", now);
}

SolverService::PlacePick SolverService::pick_devices(int k, double now) const {
  PlacePick pick;
  const int dpn = cfg_.cluster.devices_per_node;
  if (k <= dpn) {
    bool saw_busy = false;
    for (int j = 0; j < cfg_.cluster.nodes; ++j) {
      const Resource& n = node(j);
      if (!n.alive || !n.breaker.allow()) continue;
      int usable = 0;
      std::vector<int> free;
      for (int id = j * dpn; id < (j + 1) * dpn; ++id) {
        const Resource& d = device(id);
        if (!d.alive || !d.breaker.allow()) continue;
        ++usable;
        if (d.busy_until <= now) free.push_back(id);
      }
      if (usable < k) continue;
      if (static_cast<int>(free.size()) >= k) {
        pick.status = PlacePick::Status::placed;
        pick.devs.assign(free.begin(), free.begin() + k);
        return pick;
      }
      saw_busy = true;
    }
    pick.status = saw_busy ? PlacePick::Status::busy : PlacePick::Status::infeasible;
    return pick;
  }
  if (k % dpn != 0) return pick;  // infeasible by construction
  const int need = k / dpn;
  std::vector<int> free_nodes;
  int usable_nodes = 0;
  for (int j = 0; j < cfg_.cluster.nodes; ++j) {
    const Resource& n = node(j);
    if (!n.alive || !n.breaker.allow()) continue;
    bool whole = true, idle = true;
    for (int id = j * dpn; id < (j + 1) * dpn; ++id) {
      const Resource& d = device(id);
      whole = whole && d.alive && d.breaker.allow();
      idle = idle && d.busy_until <= now;
    }
    if (!whole) continue;
    ++usable_nodes;
    if (idle) free_nodes.push_back(j);
  }
  if (usable_nodes < need) return pick;
  if (static_cast<int>(free_nodes.size()) < need) {
    pick.status = PlacePick::Status::busy;
    return pick;
  }
  pick.status = PlacePick::Status::placed;
  for (int j = 0; j < need; ++j)
    for (int id = free_nodes[static_cast<std::size_t>(j)] * dpn;
         id < (free_nodes[static_cast<std::size_t>(j)] + 1) * dpn; ++id)
      pick.devs.push_back(id);
  return pick;
}

void SolverService::dispatch_ready(SloReport& rep, double now) {
  std::vector<SolveRequest> held;
  SolveRequest req;
  while (queue_.pop(now, req)) {
    if (alive_devices() == 0) {
      shed(rep, req, ShedReason::no_capacity, "every device lost", now);
      continue;
    }
    faultsim::Injector* inj = faultsim::Injector::current();
    if (inj != nullptr &&
        inj->on_serve_check("serve/dispatch [" + std::to_string(req.id) + "]")) {
      ++req.dispatch_attempts;
      degrade(rep, now, req.id, "dispatch-fault",
              "dispatch attempt " + std::to_string(req.dispatch_attempts) + " faulted");
      if (req.dispatch_attempts > req.retry_budget) {
        shed(rep, req, ShedReason::dispatch_fault_budget,
             std::to_string(req.dispatch_attempts) + " faulted dispatches", now);
      } else {
        req.not_before_us = now + requeue_backoff_us(req.dispatch_attempts);
        queue_.requeue(req);
      }
      continue;
    }

    const int target_k = std::max(1, std::min(req.devices, max_priced_devices(req.spec)));
    const Placement* chosen = nullptr;
    PlacePick pick;
    const auto& specs = placements_[static_cast<std::size_t>(req.spec)];
    for (auto it = specs.rbegin(); it != specs.rend(); ++it) {
      if (it->devices > target_k) continue;
      PlacePick pp = pick_devices(it->devices, now);
      if (pp.status == PlacePick::Status::placed) {
        chosen = &*it;
        pick = std::move(pp);
        break;
      }
      if (pp.status == PlacePick::Status::busy) {
        // Capacity at this width exists but is occupied: wait for it rather
        // than degrading the request onto fewer devices.
        break;
      }
      // infeasible at this width (dead or breaker-open devices): shrink.
    }
    if (chosen == nullptr) {
      held.push_back(req);
      continue;
    }
    if (chosen->devices < target_k)
      degrade(rep, now, req.id, "shrink-to-survivors",
              "placed on " + std::to_string(chosen->devices) + " of " +
                  std::to_string(target_k) + " requested devices (" +
                  device_label(pick.devs) + ")");

    int apply_budget = 0;
    if (req.deadline_us != kNoDeadline) {
      const double remaining = req.deadline_us - (now + kDispatchOverheadUs);
      apply_budget = static_cast<int>(
          std::floor(remaining / (2.0 * chosen->per_iter_us)));
      if (apply_budget < kMinAppliesPerRhs * req.rhs) {
        shed(rep, req, ShedReason::deadline_unreachable,
             "budget of " + std::to_string(apply_budget) + " applies cannot cover " +
                 std::to_string(req.rhs) + " rhs on " + std::to_string(chosen->devices) +
                 " devices",
             now);
        continue;
      }
    }

    ++req.dispatch_attempts;
    Inflight f;
    f.req = req;
    f.devs = pick.devs;
    queue_.mark_inflight(req);
    execute(rep, f, *chosen, apply_budget, now);
    inflight_.push_back(std::move(f));
  }
  for (SolveRequest& r : held) queue_.requeue(std::move(r));
}

void SolverService::execute(SloReport& rep, Inflight& f, const Placement& placement,
                            int apply_budget, double now) {
  const ProblemSpec& sp = catalog_[static_cast<std::size_t>(f.req.spec)];
  const int rung = std::min(f.req.fallback_rung, kLastRung);
  const Strategy strat =
      rung <= 0 ? f.req.strategy : kFallbackLadder[static_cast<std::size_t>(rung)];
  const gpusim::NodeTopology etopo = multidev::effective_topology(topo_, placement.devices);

  int applies_total = 0;
  ShardedCgConfig scfg = solver_config(sp, strat, etopo);
  if (apply_budget > 0) {
    scfg.cancel = [&applies_total, apply_budget](int, int applies) {
      return applies_total + applies >= apply_budget;
    };
  }
  ShardedCgSolver solver(sp.dims, gauge(f.req.spec), sp.mass, placement.grid, scfg);

  f.outcome = RequestOutcome{};
  f.outcome.req = f.req;
  f.outcome.dispatch_us = now;
  f.outcome.strategy_used = strat;
  f.outcome.devices = device_label(f.devs);
  f.outcome.grid = placement.grid.label();
  f.rank_faults.clear();
  f.node_faults.clear();

  const double start = now + kDispatchOverheadUs;
  double solve_us = 0.0;
  bool all_ok = true;
  for (int r = 0; r < f.req.rhs; ++r) {
    if (apply_budget > 0 && applies_total >= apply_budget) {
      all_ok = false;
      f.fail_reason = ShedReason::deadline_budget_exhausted;
      f.fail_detail = "apply budget spent after " + std::to_string(r) + " of " +
                      std::to_string(f.req.rhs) + " rhs";
      break;
    }
    ColorField b(solver.geom(), Parity::Even);
    b.fill_random(f.req.source_seed + static_cast<std::uint64_t>(r));
    ColorField x(solver.geom(), Parity::Even);
    x.zero();
    const ShardedCgResult sres = solver.solve(b, x);

    applies_total += sres.applies;
    solve_us += sres.applies * 2.0 * placement.per_iter_us + sres.recovery_us;
    f.outcome.iterations += sres.cg.iterations;
    f.outcome.applies += sres.applies;
    f.outcome.restarts += sres.restarts;
    f.outcome.failovers += sres.failovers_observed;
    f.outcome.faults_observed += sres.faults.size();
    f.outcome.worst_true_residual =
        std::max(f.outcome.worst_true_residual, sres.cg.true_relative_residual);
    f.outcome += sres;  // the solve's elastic tally
    for (const faultsim::FaultEvent& e : sres.faults) {
      if (e.kind == faultsim::FaultKind::heal) continue;  // a return, not a fault
      if (e.kind == faultsim::FaultKind::node_loss) {
        const int jn = parse_indexed(e.site, 'n');
        if (jn >= 0) ++f.node_faults[jn];
        continue;
      }
      const int rk = parse_indexed(e.site, 'r');
      if (rk >= 0) ++f.rank_faults[rk];
    }
    if (sres.failovers_observed > 0)
      degrade(rep, now, f.req.id, "failover",
              "grid " + placement.grid.label() + " -> " + sres.final_grid.label() +
                  " during rhs " + std::to_string(r));
    if (sres.spares_consumed > 0)
      degrade(rep, now, f.req.id, "re-replication",
              std::to_string(sres.spares_consumed) + " shard(s) re-replicated onto spares (" +
                  std::to_string(sres.rereplicated_bytes) + " bytes) during rhs " +
                  std::to_string(r));
    if (sres.rejoins > 0)
      degrade(rep, now, f.req.id, "rejoin",
              std::to_string(sres.rejoins) + " rejoin(s) restored " +
                  std::to_string(sres.capacity_restored) + " device(s) of capacity during rhs " +
                  std::to_string(r));

    if (sres.cancelled) {
      all_ok = false;
      f.fail_reason = ShedReason::deadline_budget_exhausted;
      f.fail_detail = "solve of rhs " + std::to_string(r) + " ran out of its " +
                      std::to_string(apply_budget) + "-apply budget";
      break;
    }
    if (!sres.recovered_all) {
      all_ok = false;
      f.fail_reason = ShedReason::recovery_exhausted;
      f.fail_detail = "recovery ladder exhausted on rhs " + std::to_string(r);
      break;
    }
    if (!sres.cg.converged) {
      all_ok = false;
      f.fail_reason = ShedReason::no_convergence;
      f.fail_detail = "rhs " + std::to_string(r) + " stopped at residual " +
                      std::to_string(sres.cg.relative_residual);
      break;
    }
    ++f.outcome.rhs_done;
    f.outcome.solution_fnv.push_back(io::fnv1a(x.data(), x.bytes(), kFnvBasis));
  }

  f.ok = all_ok && f.outcome.rhs_done == f.req.rhs;
  // Every accepted apply ran under the ABFT Hermitian-identity check — the
  // solve is certified exactly when it completed with all recoveries intact.
  f.outcome.abft_certified = f.ok;
  f.complete_us = start + solve_us;
  for (int d : f.devs) device(d).busy_until = f.complete_us;
  tenant_busy_us_[f.req.tenant] +=
      (f.complete_us - now) * static_cast<double>(placement.devices);
}

void SolverService::process_completion(SloReport& rep, Inflight f, double now) {
  queue_.mark_done(f.req);

  // Feed the breakers: a rank with attributed faults is a failure of its
  // physical device; a clean participating device is a success.  (Rank ->
  // physical attribution is best-effort: post-failover grids renumber ranks,
  // so counts are clamped into the placement.)
  const int dpn = cfg_.cluster.devices_per_node;
  std::vector<int> fault_hits(f.devs.size(), 0);
  for (const auto& [rank, count] : f.rank_faults) {
    const std::size_t j = static_cast<std::size_t>(
        std::min<int>(rank, static_cast<int>(f.devs.size()) - 1));
    fault_hits[j] += count;
  }
  for (std::size_t j = 0; j < f.devs.size(); ++j) {
    Resource& d = device(f.devs[j]);
    if (!d.alive) continue;
    if (fault_hits[j] > 0)
      d.breaker.on_failure(now, std::to_string(fault_hits[j]) + " faults in solve of #" +
                                    std::to_string(f.req.id));
    else
      d.breaker.on_success(now);
  }
  for (const auto& [jn, count] : f.node_faults) {
    const std::size_t base = static_cast<std::size_t>(jn) * static_cast<std::size_t>(dpn);
    if (base >= f.devs.size()) continue;
    Resource& n = node(f.devs[base] / dpn);
    if (n.alive)
      n.breaker.on_failure(now, std::to_string(count) + " node faults in solve of #" +
                                    std::to_string(f.req.id));
  }

  if (f.ok) {
    RequestOutcome out = std::move(f.outcome);
    out.complete_us = now;
    out.latency_us = now - f.req.submit_us;
    out.deadline_met = now <= f.req.deadline_us;
    out.status = RequestOutcome::Status::completed;
    rep.outcomes.push_back(std::move(out));
    return;
  }
  if (f.fail_reason == ShedReason::deadline_budget_exhausted) {
    // Retrying cannot mint more time before the same deadline.
    shed(rep, f.req, f.fail_reason, f.fail_detail, now, &f.outcome);
    return;
  }
  if (f.req.dispatch_attempts > f.req.retry_budget) {
    shed(rep, f.req, f.fail_reason, f.fail_detail + "; retry budget spent", now, &f.outcome);
    return;
  }
  SolveRequest r = f.req;
  r.fallback_rung = std::min(r.fallback_rung + 1, kLastRung);
  r.not_before_us = now + requeue_backoff_us(r.dispatch_attempts);
  degrade(rep, now, r.id, "strategy-fallback",
          "retry " + std::to_string(r.dispatch_attempts) + " as " +
              to_string(kFallbackLadder[static_cast<std::size_t>(r.fallback_rung)]) +
              " after: " + f.fail_detail);
  queue_.requeue(std::move(r));
}

void SolverService::shed(SloReport& rep, const SolveRequest& req, ShedReason reason,
                         std::string detail, double now, RequestOutcome* partial) {
  RequestOutcome out = partial != nullptr ? std::move(*partial) : RequestOutcome{};
  out.req = req;
  out.status = RequestOutcome::Status::shed;
  out.reason = to_string(reason);
  out.complete_us = now;
  out.solution_fnv.clear();  // a shed request delivers nothing
  rep.outcomes.push_back(std::move(out));
  degrade(rep, now, req.id, "shed", std::string(to_string(reason)) + ": " + std::move(detail));
}

void SolverService::degrade(SloReport& rep, double now, std::uint64_t req_id,
                            std::string kind, std::string detail) {
  rep.degradations.push_back({now, req_id, std::move(kind), std::move(detail)});
}

double SolverService::next_event_time(double now, std::size_t next_arrival,
                                      std::size_t next_cancel,
                                      const std::vector<SolveRequest>& traffic,
                                      const std::vector<CancelEvent>& cancels) const {
  double next = kNoDeadline;
  if (next_arrival < traffic.size())
    next = std::min(next, traffic[next_arrival].submit_us);
  if (next_cancel < cancels.size()) next = std::min(next, cancels[next_cancel].at_us);
  for (const Inflight& f : inflight_) next = std::min(next, f.complete_us);
  if (!queue_.empty()) {
    next = std::min(next, queue_.next_ready_us(now));
    for (const Resource& r : resources_) {
      if (!r.alive) continue;
      if (r.busy_until > now) next = std::min(next, r.busy_until);
      if (r.breaker.state() == BreakerState::open && r.breaker.open_until() > now)
        next = std::min(next, r.breaker.open_until());
    }
    if (next == kNoDeadline) {
      // Queued work with nothing left to wake the scheduler would normally
      // shed terminally — but when the fault plan can heal resources and a
      // dead one exists, keep polling so a scheduled heal can rejoin it.
      const faultsim::Injector* inj = faultsim::Injector::current();
      bool can_heal = false;
      if (inj != nullptr) {
        can_heal = inj->plan().p_heal > 0.0;
        for (const faultsim::ScheduledFault& sf : inj->plan().schedule)
          can_heal = can_heal || sf.kind == faultsim::FaultKind::heal;
      }
      const bool any_dead = alive_devices() < cfg_.cluster.total();
      if (can_heal && any_dead) next = now + 1'000.0;  // heal-poll tick
    }
  }
  if (next <= now) next = now + 1.0;  // monotonic-clock backstop
  return next;
}

}  // namespace milc::serve
