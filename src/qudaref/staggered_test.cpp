#include "qudaref/staggered_test.hpp"

#include <map>
#include <stdexcept>

#include "minisycl/queue.hpp"
#include "tune/candidates.hpp"
#include "tune/explorer.hpp"

namespace milc::qudaref {

StaggeredDslashTest::StaggeredDslashTest(DslashProblem& problem)
    : problem_(problem),
      b_soa_(problem.b()),
      c_soa_(problem.geom(), problem.target_parity()) {}

QudaArgs StaggeredDslashTest::make_args(Reconstruct scheme) {
  if (!gauge_ || gauge_->scheme() != scheme) {
    gauge_.emplace(problem_.view(), scheme);
  }
  QudaArgs a;
  a.gauge = gauge_->data();
  a.reals = gauge_->reals();
  a.pairs = gauge_->pairs();
  a.scheme = scheme;
  a.b = b_soa_.data();
  a.c_out = c_soa_.data();
  a.neighbors = problem_.neighbors().data();
  a.sites = problem_.sites();
  return a;
}

minisycl::LaunchSpec quda_spec(const QudaArgs& a, int local_size) {
  const std::int64_t n = a.sites;
  const auto cbytes = static_cast<std::int64_t>(sizeof(dcomplex));
  const auto ibytes = static_cast<std::int64_t>(sizeof(std::int32_t));
  minisycl::LaunchSpec spec;
  spec.global_size = n;
  spec.local_size = local_size;
  spec.shared_bytes = QudaStaggeredKernel::shared_bytes(local_size);
  spec.num_phases = QudaStaggeredKernel::kPhases;
  spec.traits = QudaStaggeredKernel::traits();
  spec.traits.regs_per_thread = QudaStaggeredKernel::regs_for(a.scheme);
  spec.regions = {{a.gauge, kNlinks * kNdim * a.pairs * n * cbytes},
                  {a.b, kColors * n * cbytes},
                  {a.c_out, kColors * n * cbytes},
                  {a.neighbors, n * kNeighbors * ibytes}};
  return spec;
}

std::vector<int> StaggeredDslashTest::tuning_candidates() const {
  return tune::quda_tuning_candidates(problem_.sites());
}

tune::TuneKey StaggeredDslashTest::tune_key(Reconstruct scheme) const {
  tune::TuneKey key;
  key.arch = tune::arch_fingerprint(gpusim::a100());
  const LatticeGeom& g = problem_.geom();
  key.geom = tune::geom_signature(g.extent(0), g.extent(1), g.extent(2), g.extent(3),
                                  problem_.target_parity() == Parity::Even);
  key.kernel = "staggered_quda";
  key.config = "sweep";
  key.recon = to_string(scheme);
  return key;
}

StaggeredResult StaggeredDslashTest::run_at(Reconstruct scheme, int local_size) {
  QudaStaggeredKernel kernel{make_args(scheme)};
  minisycl::queue q(minisycl::ExecMode::profiled, minisycl::QueueOrder::in_order);

  StaggeredResult res;
  res.scheme = scheme;
  res.local_size = local_size;
  res.stats = q.submit(quda_spec(kernel.args, local_size), kernel,
                       std::string("staggered_dslash_test ") + to_string(scheme) + " /" +
                           std::to_string(local_size));
  res.kernel_us = res.stats.duration_us;
  res.per_iter_us = res.kernel_us + q.launch_overhead_us();
  res.gflops = problem_.flops() / (res.per_iter_us * 1e-6) / 1e9;

  // Publish the SoA output back to the problem's C field so callers can
  // verify it.
  problem_.c() = c_soa_.to_aos(problem_.geom(), problem_.target_parity());
  return res;
}

StaggeredResult StaggeredDslashTest::run(Reconstruct scheme) {
  std::vector<tune::Candidate> candidates;
  for (int ls : tuning_candidates()) {
    tune::Candidate c;
    c.local_size = ls;
    candidates.push_back(c);
  }
  if (candidates.empty()) return {};  // pre-tuner contract: silent default

  // QUDA's tuner ranks by kernel time (launch overhead is identical across
  // candidates); the cache stores and replays that same metric.
  std::map<int, StaggeredResult> priced;
  const tune::PriceFn price = [&](const tune::Candidate& c) {
    StaggeredResult r = run_at(scheme, c.local_size);
    const double t = r.kernel_us;
    priced[c.local_size] = std::move(r);
    return t;
  };

  tune::TuneOutcome out;
  try {
    out = tune::tune_or_replay(tune_key(scheme), candidates, price);
  } catch (const std::invalid_argument&) {
    return {};  // every candidate infeasible — same silent result as before
  }
  return priced.at(out.entry.local_size);
}

ksan::SanitizerReport StaggeredDslashTest::sanitize(Reconstruct scheme, int local_size) {
  QudaStaggeredKernel kernel{make_args(scheme)};
  return ksan::sanitize_launch(quda_spec(kernel.args, local_size), kernel, {},
                               std::string("staggered_dslash_test ") + to_string(scheme) +
                                   " /" + std::to_string(local_size));
}

void StaggeredDslashTest::run_functional(Reconstruct scheme) {
  QudaStaggeredKernel kernel{make_args(scheme)};
  minisycl::queue q(minisycl::ExecMode::functional, minisycl::QueueOrder::in_order);
  q.submit(quda_spec(kernel.args, 128), kernel);
  problem_.c() = c_soa_.to_aos(problem_.geom(), problem_.target_parity());
}

}  // namespace milc::qudaref
