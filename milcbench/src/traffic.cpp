#include "traffic.hpp"

#include <string>
#include <utility>

#include "harness.hpp"

namespace milcbench {

using milc::serve::kNoDeadline;
using milc::serve::ProblemSpec;
using milc::serve::SolveRequest;

std::vector<ProblemSpec> storm_catalog(std::uint64_t gauge_seed) {
  return {
      {"small-4x4x4x8", milc::Coords{4, 4, 4, 8}, gauge_seed, 0.5, 1e-6, 250, 8},
      {"wide-4x4x4x12", milc::Coords{4, 4, 4, 12}, gauge_seed, 0.5, 1e-6, 250, 8},
      {"tall-4x4x4x24", milc::Coords{4, 4, 4, 24}, gauge_seed, 0.5, 1e-6, 250, 8},
  };
}

milc::serve::ServiceConfig storm_service_config() {
  milc::serve::ServiceConfig c;
  c.cluster = {2, 2};
  c.queue.capacity = 14;
  c.queue.tenant_max_queued = 6;
  c.queue.tenant_max_inflight = 2;
  c.spares.devices_per_node = 1;
  return c;
}

std::vector<SolveRequest> storm_traffic(std::uint64_t seed) {
  std::uint64_t state = derive_seed(seed, 2);
  const auto next = [&state] { return state = derive_seed(state, 0); };

  // The class of slot i, before the seeded permutation.  Relative deadlines
  // are multiples of the arrival gap: none, loose, medium, tight.
  constexpr int kWidth[] = {1, 2, 4};
  constexpr double kDeadlineGaps[] = {0.0, 8.0, 4.0, 2.0};
  std::vector<SolveRequest> classes;
  for (int i = 0; i < kStormRequests; ++i) {
    SolveRequest r;
    r.spec = i % 3;
    r.devices = kWidth[r.spec];
    r.tenant = std::string(1, static_cast<char>('a' + (i / 3) % 3));
    r.priority = 1 + (i / 9) % 3;
    r.rhs = i % 5 == 0 ? 2 : 1;
    r.retry_budget = 2;
    const double rel = kDeadlineGaps[(i / 3 + i) % 4];
    r.deadline_us = rel == 0.0 ? kNoDeadline : rel * kStormGapUs;  // relative for now
    classes.push_back(std::move(r));
  }
  for (std::size_t i = classes.size(); i > 1; --i) {
    std::swap(classes[i - 1], classes[next() % i]);
  }

  std::vector<std::uint64_t> pool;
  for (int j = 0; j < kStormSourcePool; ++j) {
    pool.push_back(derive_seed(seed, 200 + static_cast<std::uint64_t>(j)) % 1'000'000);
  }
  std::vector<SolveRequest> traffic;
  for (std::size_t slot = 0; slot < classes.size(); ++slot) {
    SolveRequest r = classes[slot];
    r.id = 1000 + slot;
    const double jitter = static_cast<double>(next() % 1'000'000) / 1e6 * 0.5 * kStormGapUs;
    r.submit_us = static_cast<double>(slot) * kStormGapUs + jitter;
    if (r.deadline_us != kNoDeadline) r.deadline_us += r.submit_us;
    r.source_seed = pool[next() % pool.size()];
    traffic.push_back(std::move(r));
  }
  return traffic;
}

faultsim::FaultPlan storm_faults(std::uint64_t seed) {
  faultsim::FaultPlan plan;
  plan.seed = derive_seed(seed, 3);
  plan.p_msg_drop = 0.0005;
  plan.p_msg_corrupt = 0.0005;
  plan.p_msg_delay = 0.001;
  plan.p_device_loss = 0.0001;
  plan.p_serve = 0.02;
  const std::uint64_t pick = derive_seed(seed, 4);
  // In-solve: rank r1 of each multi-device grid is lost on two consecutive
  // health checks at a seeded consult.  Within one hardened apply the first
  // loss drafts the hot spare (re-replication, same grid) and the second,
  // with the spare spent, shrinks the grid; a later heal consult of the
  // shrunk grid brings r1 back and the solve rejoins the full grid.
  plan.schedule.push_back(
      {faultsim::FaultKind::device_loss, 20 + (pick >> 24) % 20, 2, "device r1 @"});
  plan.schedule.push_back(
      {faultsim::FaultKind::heal, 2 + (pick >> 32) % 4, 1, "heal/device r1 @"});
  // Serve tier: one device loss and its heal, at seeded consults.
  const std::string dev = "d" + std::to_string(pick % 4);
  plan.schedule.push_back(
      {faultsim::FaultKind::device_loss, 2 + (pick >> 8) % 4, 1, "serve/device " + dev});
  plan.schedule.push_back(
      {faultsim::FaultKind::heal, 2 + (pick >> 16) % 3, 1, "heal/device " + dev});
  return plan;
}

}  // namespace milcbench
