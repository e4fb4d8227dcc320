// serve.cpp — the serve-storm workload: one SolverService on a 2 x 2
// cluster under seeded open-loop traffic and a seeded fault plan.  It drives
// multidev's hardened path (checksums, retransmits, failover,
// re-replication) on tiny lattices where per-call overhead dominates, plus
// the admission queue, the breakers and the degradation ladder.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <tuple>

#include "traffic.hpp"
#include "workloads.hpp"

namespace milcbench {
namespace {

using milc::serve::BreakerState;
using milc::serve::RequestOutcome;
using milc::serve::SloReport;
using milc::serve::SolverService;

constexpr int kSetups = 5;

/// Every completed request must match a fault-free reference solve of its
/// (spec, rhs, source seed, strategy) bit for bit.  The pool keeps the
/// number of distinct inputs small; the cache keeps each one solved once.
class ReferenceCache {
 public:
  const std::vector<std::uint64_t>& get(const SolverService& svc, Tracer& tr,
                                        const RequestOutcome& o) {
    const auto key = std::make_tuple(o.req.spec, o.req.rhs, o.req.source_seed,
                                     static_cast<int>(o.strategy_used));
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      auto sums = in_span(tr, "serve.reference", "req#" + std::to_string(o.req.id), [&] {
        return svc.reference_checksums(o.req.spec, o.req.rhs, o.req.source_seed,
                                       o.strategy_used);
      });
      it = cache_.emplace(key, std::move(sums)).first;
    }
    return it->second;
  }
  [[nodiscard]] std::size_t size() const { return cache_.size(); }

 private:
  std::map<std::tuple<int, int, std::uint64_t, int>, std::vector<std::uint64_t>> cache_;
};

void verify(const std::vector<milc::serve::SolveRequest>& traffic, const SloReport& rep,
            const SolverService& svc, ReferenceCache& refs, Tracer& tr, Outcome& out) {
  std::vector<std::uint64_t> want, got;
  for (const auto& r : traffic) want.push_back(r.id);
  for (const RequestOutcome& o : rep.outcomes) got.push_back(o.req.id);
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (want != got) out.fail("serve-storm: submitted ids not accounted for exactly once");
  for (const RequestOutcome& o : rep.outcomes) {
    ++out.attempted;
    const std::string tag = "request #" + std::to_string(o.req.id);
    if (o.status == RequestOutcome::Status::completed) {
      if (!o.abft_certified) {
        out.fail(tag + " completed without ABFT certification");
      } else if (o.rhs_done != o.req.rhs) {
        out.fail(tag + " completed with missing right-hand sides");
      } else if (o.solution_fnv != refs.get(svc, tr, o)) {
        out.fail(tag + " solution differs from the fault-free reference");
      }
    } else if (o.reason.empty()) {
      out.fail(tag + " " + o.status_str() + " without a reason");
    }
  }
}

}  // namespace

Outcome run_serve_storm(const Options& opt, Tracer& tr) {
  Outcome out;
  const auto catalog = storm_catalog(derive_seed(opt.seed, 1));
  const auto traffic = storm_traffic(opt.seed);
  const faultsim::FaultPlan plan = storm_faults(opt.seed);

  std::unique_ptr<SolverService> svc;
  run_setups(kSetups, tr, out, [&] {
    svc.reset();
    svc = in_span(tr, "serve.pricing", {}, [&] {
      return std::make_unique<SolverService>(catalog, storm_service_config());
    });
  });

  ReferenceCache refs;
  SloReport rep;
  std::vector<std::uint64_t> digests;
  run_passes(opt, tr, out, [&](int) {
    const Clock::time_point t0 = Clock::now();
    in_span(tr, "pass", {}, [&] {
      faultsim::ScopedFaultInjection fi(plan);
      rep = in_span(tr, "serve.run", {}, [&] { return svc->run("serve-storm", traffic); });
    });
    const double host_s = seconds_since(t0);

    // Rebuild per-request spans on the simulated clock from the outcomes.
    if (tr.enabled()) {
      for (const RequestOutcome& o : rep.outcomes) {
        const std::string id = "req#" + std::to_string(o.req.id);
        const double end = o.complete_us >= 0.0 ? o.complete_us : o.req.submit_us;
        tr.add_sim("serve.request", id, o.req.submit_us, end, -1);
        const int parent = tr.last();
        if (o.dispatch_us < 0.0) continue;
        tr.add_sim("serve.queue", id, o.req.submit_us, o.dispatch_us, parent);
        tr.add_sim("serve.service", id, o.dispatch_us, end, parent);
      }
    }

    // Output check with no fault plan installed: reference_checksums must
    // run fault-free.
    in_span(tr, "check", {}, [&] { verify(traffic, rep, *svc, refs, tr, out); });

    Digest d;
    d.str(rep.canonical());
    digests.push_back(d.value());
    return host_s;
  });

  out.check_digests(digests);

  // --- simulated metrics ---------------------------------------------------
  std::vector<double> latency, queue_wait, service;
  int goodput = 0, faults = 0, restarts = 0, failovers = 0;
  for (const RequestOutcome& o : rep.outcomes) {
    if (o.dispatch_us >= 0.0) queue_wait.push_back(o.dispatch_us - o.req.submit_us);
    if (o.status == RequestOutcome::Status::completed) {
      latency.push_back(o.latency_us);
      service.push_back(o.complete_us - o.dispatch_us);
      goodput += o.deadline_met ? 1 : 0;
    }
    faults += static_cast<int>(o.faults_observed);
    restarts += o.restarts;
    failovers += o.failovers;
  }
  int trips = 0;
  for (const auto& e : rep.breaker_events) trips += e.to == BreakerState::open ? 1 : 0;

  double best = 0.0;
  for (std::size_t s = 0; s < svc->catalog().size(); ++s) {
    const milc::LatticeGeom geom(svc->catalog()[s].dims);
    for (const auto& p : svc->placements(static_cast<int>(s))) {
      best = std::max(best, milc::dslash_flops(geom.half_volume()) / (p.per_iter_us * 1e3));
    }
  }

  MetricTable& m = out.metrics;
  m.sim("sim_gflops_3lp1", best, "GF/s");
  m.sim("sim_gflops_peak", best, "GF/s");
  m.sim("goodput_frac", static_cast<double>(goodput) / static_cast<double>(rep.submitted),
        "fraction");
  const Tail tail = tail_percentile(latency);
  m.sim("serve.latency_p50_us", median(latency), "us");
  m.sim("serve.latency_tail_us", tail.value, "us");
  m.sim("serve.latency_tail_pct", tail.pct, "percentile");
  m.sim("serve.latency_samples", static_cast<double>(tail.samples), "count");
  m.sim("serve.queue_wait_p50_us", median(queue_wait), "us");
  m.sim("serve.queue_wait_tail_us", tail_percentile(queue_wait).value, "us");
  m.sim("serve.service_p50_us", median(service), "us");
  m.sim("serve.rejected", rep.rejected, "count");
  m.sim("serve.shed", rep.shed, "count");
  m.sim("serve.cancelled", rep.cancelled, "count");
  m.sim("serve.deadline_missed", rep.deadline_missed, "count");
  m.sim("serve.breaker_trips", trips, "count");
  m.sim("serve.degradations", static_cast<double>(rep.degradations.size()), "count");
  m.sim("serve.placements_priced", svc->pricing_stats().placements_priced, "count");
  m.sim("serve.grids_scored", svc->pricing_stats().grids_scored, "count");
  m.sim("faultsim.faults_observed", faults, "count");
  m.sim("cg.restarts", restarts, "count");
  m.sim("multidev.failovers", failovers, "count");
  m.sim("multidev.spares_consumed", rep.spares_consumed, "count");
  m.sim("multidev.rejoins", rep.rejoins, "count");
  m.sim("multidev.rereplicated_bytes", static_cast<double>(rep.rereplicated_bytes), "B");

  char buf[320];
  std::snprintf(buf, sizeof buf,
                "serve-storm: %d requests, open loop, one due every %.0f us (+ jitter); "
                "%d completed (%d by deadline), %d rejected, %d shed; latency tail = "
                "p%d of %zu completed (%zu beyond); %zu reference solves cached",
                rep.submitted, kStormGapUs, rep.completed, goodput, rep.rejected,
                rep.shed, tail.pct, tail.samples, tail.beyond, refs.size());
  out.notes.emplace_back(buf);
  std::map<std::string, int> reasons;
  for (const RequestOutcome& o : rep.outcomes) {
    if (o.status != RequestOutcome::Status::completed) ++reasons[o.status_str() + (": " + o.reason)];
  }
  for (const auto& [reason, count] : reasons) {
    out.notes.push_back("  " + std::to_string(count) + " x " + reason);
  }
  return out;
}

}  // namespace milcbench
