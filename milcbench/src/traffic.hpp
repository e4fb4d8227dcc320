// traffic.hpp — the serve-storm workload's inputs: the service, its
// three-spec catalog, the open-loop traffic generator and the fault plan,
// all derived from the one workload seed.
#pragma once

#include <cstdint>
#include <vector>

#include "faultsim/faultsim.hpp"
#include "serve/service.hpp"

namespace milcbench {

/// The generator's fixed shape.  Arrivals are due at slot x kStormGapUs plus
/// a seeded jitter below kStormGapUs / 2, on the simulated clock and
/// independent of completions (open loop), so the generator is never late.
constexpr int kStormRequests = 60;
constexpr double kStormGapUs = 25'000.0;
/// Source seeds come from a pool this small, so requests share work and the
/// reference oracle (one solve per distinct input) stays cheap.
constexpr int kStormSourcePool = 4;

/// bench_serve's three-spec catalog (single-device, 2-device, 4-device
/// capable lattices) with the gauge ensemble drawn from `gauge_seed`.
std::vector<milc::serve::ProblemSpec> storm_catalog(std::uint64_t gauge_seed);

/// A 2 x 2 cluster with bench_serve's queue limits and one hot spare per
/// node, so a device lost mid-solve is re-replicated before it is shrunk.
milc::serve::ServiceConfig storm_service_config();

/// Stratified open-loop traffic: every seed gets the same multiset of
/// request classes (spec, width, tenant, priority, right-hand sides,
/// deadline class); the seed permutes their order, jitters the arrivals and
/// picks source seeds from the pool.  Ids are 1000 + slot.
std::vector<milc::serve::SolveRequest> storm_traffic(std::uint64_t seed);

/// Message drop/corrupt/delay; in-solve device loss that first drafts the
/// hot spare, then shrinks the grid, then heals and rejoins it; one
/// serve-tier device loss with its heal; and serve control-plane faults.
/// Kernel-strategy faults are left out: their recovery is 1e-9-accurate,
/// not bit-exact, and the oracle is bit-for-bit.
faultsim::FaultPlan storm_faults(std::uint64_t seed);

}  // namespace milcbench
