#include "serve/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace milc::serve {

const char* RequestOutcome::status_str() const {
  switch (status) {
    case Status::rejected: return "rejected";
    case Status::completed: return "completed";
    case Status::shed: return "shed";
    case Status::cancelled: return "cancelled";
  }
  return "unknown";
}

double percentile_us(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto n = static_cast<double>(sample.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sample[rank == 0 ? 0 : rank - 1];
}

void SloReport::finalize() {
  std::sort(outcomes.begin(), outcomes.end(),
            [](const RequestOutcome& a, const RequestOutcome& b) {
              return a.req.id < b.req.id;
            });

  submitted = static_cast<int>(outcomes.size());
  admitted = rejected = completed = shed = cancelled = 0;
  deadline_met = deadline_missed = 0;
  static_cast<multidev::ElasticTally&>(*this) = {};

  std::map<std::string, TenantSlo> by_tenant;
  std::map<std::string, std::vector<double>> tenant_lat;
  std::vector<double> latencies;

  for (const RequestOutcome& o : outcomes) {
    TenantSlo& t = by_tenant[o.req.tenant];
    t.tenant = o.req.tenant;
    ++t.submitted;
    *this += o;
    switch (o.status) {
      case RequestOutcome::Status::rejected:
        ++rejected;
        ++t.rejected;
        break;
      case RequestOutcome::Status::completed:
        ++admitted;
        ++t.admitted;
        ++completed;
        ++t.completed;
        latencies.push_back(o.latency_us);
        tenant_lat[o.req.tenant].push_back(o.latency_us);
        if (o.deadline_met) {
          ++deadline_met;
          ++t.deadline_met;
        } else {
          ++deadline_missed;
          ++t.deadline_missed;
        }
        break;
      case RequestOutcome::Status::shed:
        ++admitted;
        ++t.admitted;
        ++shed;
        ++t.shed;
        break;
      case RequestOutcome::Status::cancelled:
        ++admitted;
        ++t.admitted;
        ++cancelled;
        ++t.cancelled;
        break;
    }
  }

  p50_latency_us = percentile_us(latencies, 0.50);
  p99_latency_us = percentile_us(latencies, 0.99);
  max_latency_us = latencies.empty() ? 0.0 : *std::max_element(latencies.begin(), latencies.end());

  // busy_device_us is accumulated by the service before finalize(); carry the
  // previously-summed values over into the recomputed rows.
  std::map<std::string, double> busy;
  for (const TenantSlo& t : tenants) busy[t.tenant] = t.busy_device_us;

  tenants.clear();
  for (auto& [name, t] : by_tenant) {
    t.p50_latency_us = percentile_us(tenant_lat[name], 0.50);
    t.p99_latency_us = percentile_us(tenant_lat[name], 0.99);
    const auto it = busy.find(name);
    if (it != busy.end()) t.busy_device_us = it->second;
    tenants.push_back(t);
  }
}

std::string SloReport::summary() const {
  char buf[512];
  std::string s;
  std::snprintf(buf, sizeof buf,
                "slo[%s seed=%llu]: %d submitted | %d rejected | %d completed "
                "(%d met / %d missed deadlines) | %d shed | %d cancelled | "
                "p50 %.1f us p99 %.1f us | makespan %.1f us | %zu faults | "
                "%zu degradations %zu breaker events\n",
                scenario.c_str(), static_cast<unsigned long long>(fault_seed), submitted,
                rejected, completed, deadline_met, deadline_missed, shed, cancelled,
                p50_latency_us, p99_latency_us, makespan_us, faults_injected,
                degradations.size(), breaker_events.size());
  s += buf;
  if (spares_consumed > 0 || rejoins > 0 || devices_rejoined > 0 || nodes_rejoined > 0 ||
      rereplicated_bytes > 0) {
    std::snprintf(buf, sizeof buf,
                  "  recovery: %d spares | %d solver rejoins (+%d devices) | "
                  "%d device / %d node serve rejoins | %lld bytes re-replicated "
                  "(%.1f us) | %.1f us down-time recovered\n",
                  spares_consumed, rejoins, capacity_restored, devices_rejoined,
                  nodes_rejoined, static_cast<long long>(rereplicated_bytes),
                  rereplication_us, recovery_time_us);
    s += buf;
  }
  for (const TenantSlo& t : tenants) {
    std::snprintf(buf, sizeof buf,
                  "  tenant %-10s sub %3d adm %3d rej %3d done %3d shed %3d cxl %3d | "
                  "met %3d miss %3d | p50 %9.1f p99 %9.1f | busy %12.1f us\n",
                  t.tenant.c_str(), t.submitted, t.admitted, t.rejected, t.completed,
                  t.shed, t.cancelled, t.deadline_met, t.deadline_missed, t.p50_latency_us,
                  t.p99_latency_us, t.busy_device_us);
    s += buf;
  }
  return s;
}

std::string SloReport::canonical() const {
  std::string s = summary();
  char buf[768];
  for (const RequestOutcome& o : outcomes) {
    std::snprintf(buf, sizeof buf,
                  "req %llu tenant=%s prio=%d %s reason='%s' dispatch=%.3f done=%.3f "
                  "lat=%.3f met=%d dev=%s grid=%s strat=%s rhs=%d/%d iters=%d applies=%d "
                  "restarts=%d failovers=%d faults=%zu abft=%d res=%.6e "
                  "spares=%d rejoins=%d cap=%d rerep=%lld fnv=",
                  static_cast<unsigned long long>(o.req.id), o.req.tenant.c_str(),
                  o.req.priority, o.status_str(), o.reason.c_str(), o.dispatch_us,
                  o.complete_us, o.latency_us, o.deadline_met ? 1 : 0, o.devices.c_str(),
                  o.grid.c_str(), to_string(o.strategy_used), o.rhs_done, o.req.rhs,
                  o.iterations, o.applies, o.restarts, o.failovers, o.faults_observed,
                  o.abft_certified ? 1 : 0, o.worst_true_residual, o.spares_consumed,
                  o.rejoins, o.capacity_restored,
                  static_cast<long long>(o.rereplicated_bytes));
    s += buf;
    for (const std::uint64_t f : o.solution_fnv) {
      std::snprintf(buf, sizeof buf, "%016llx.", static_cast<unsigned long long>(f));
      s += buf;
    }
    s += "\n";
  }
  for (const DegradationEvent& d : degradations) {
    std::snprintf(buf, sizeof buf, "degrade @%.3f req=%llu %s: %s\n", d.at_us,
                  static_cast<unsigned long long>(d.request_id), d.kind.c_str(),
                  d.detail.c_str());
    s += buf;
  }
  for (const BreakerEvent& e : breaker_events) {
    std::snprintf(buf, sizeof buf, "breaker @%.3f %s %s->%s: %s\n", e.at_us,
                  e.resource.c_str(), to_string(e.from), to_string(e.to), e.why.c_str());
    s += buf;
  }
  return s;
}

}  // namespace milc::serve
