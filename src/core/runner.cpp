#include "core/runner.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/dispatch.hpp"

namespace milc {

namespace {

/// Validate the §III local-size rules for this problem, then hand the
/// configuration's kernel object to `fn` via the shared dispatch switch
/// (core/dispatch.hpp) — every launch mode (profiled, functional,
/// sanitized) runs the identical kernel object.
template <typename Fn>
auto with_kernel(DslashProblem& p, Strategy s, IndexOrder o, int local_size, bool use_syclcplx,
                 Fn&& fn) {
  if (!is_valid_local_size(s, o, local_size, p.sites())) {
    throw std::invalid_argument("invalid local size " + std::to_string(local_size) + " for " +
                                config_label(s, o, local_size));
  }
  return with_dslash_kernel(p.args(), s, o, use_syclcplx, std::forward<Fn>(fn));
}

gpusim::KernelStats dispatch(minisycl::queue& q, DslashProblem& p, Strategy s, IndexOrder o,
                             int local_size, bool use_syclcplx, const VariantInfo* vi,
                             const std::string& name) {
  const DslashArgs<dcomplex> args = p.args();
  return with_kernel(p, s, o, local_size, use_syclcplx, [&](const auto& kernel) {
    using K = std::decay_t<decltype(kernel)>;
    return q.submit(dslash_launch<K>(args, args.sites, s, local_size, vi), kernel, name);
  });
}

}  // namespace

std::vector<RunRequest> fallback_requests(const RunRequest& req, std::int64_t sites) {
  std::vector<RunRequest> rungs;
  rungs.reserve(1 + kFallbackLadder.size());
  rungs.push_back(req);
  for (const Strategy s : kFallbackLadder) {
    if (s == req.strategy) continue;
    RunRequest r = req;
    r.strategy = s;
    r.variant = Variant::SYCL;
    const std::vector<IndexOrder> orders = orders_of(s);
    if (std::find(orders.begin(), orders.end(), r.order) == orders.end()) {
      r.order = orders.front();
    }
    if (!is_valid_local_size(s, r.order, r.local_size, sites)) {
      const std::vector<int> sizes = paper_local_sizes(s, r.order, sites);
      if (!sizes.empty()) r.local_size = sizes.front();
    }
    rungs.push_back(r);
  }
  return rungs;
}

RunResult DslashRunner::run(DslashProblem& problem, const RunRequest& req) const {
  const VariantInfo& vi = variant_info(req.variant);
  minisycl::queue q(minisycl::ExecMode::profiled, vi.queue_order, machine_);
  return run_on(q, problem, req);
}

RunResult DslashRunner::run_on(minisycl::queue& q, DslashProblem& problem,
                               const RunRequest& req) const {
  const VariantInfo& vi = variant_info(req.variant);

  std::string name = config_label(req.strategy, req.order, req.local_size);
  if (req.variant != Variant::SYCL) {
    name += " [";
    name += vi.name;
    name += ']';
  }

  RunResult res;
  res.stats = dispatch(q, problem, req.strategy, req.order, req.local_size, vi.use_syclcplx,
                       &vi, name);
  res.label = std::move(name);
  res.kernel_us = res.stats.duration_us;
  res.per_iter_us = res.stats.duration_us + q.launch_overhead_us();
  res.gflops = problem.flops() / (res.per_iter_us * 1e-6) / 1e9;
  return res;
}

tune::TuneKey DslashRunner::tune_key(const DslashProblem& problem, Strategy s,
                                     Variant variant) const {
  tune::TuneKey key;
  key.arch = tune::arch_fingerprint(machine_);
  const LatticeGeom& g = problem.geom();
  key.geom = tune::geom_signature(g.extent(0), g.extent(1), g.extent(2), g.extent(3),
                                  problem.target_parity() == Parity::Even);
  key.kernel = "dslash";
  key.config = std::string(to_string(s)) + " " + variant_info(variant).name;
  return key;
}

TunedRunResult DslashRunner::run_tuned(DslashProblem& problem, Strategy s, Variant variant,
                                       int iterations) const {
  const tune::TuneKey key = tune_key(problem, s, variant);

  std::vector<tune::Candidate> candidates;
  for (IndexOrder o : orders_of(s)) {
    for (int ls : paper_local_sizes(s, o, problem.sites())) {
      tune::Candidate c;
      c.local_size = ls;
      c.order = to_string(o);
      candidates.push_back(c);
    }
  }

  // The pricer keeps every RunResult it produces so the winner's full
  // profile (stats, GFLOP/s) survives the tuner's winner selection.
  std::map<std::pair<std::string, int>, RunResult> priced;
  const tune::PriceFn price = [&](const tune::Candidate& c) {
    IndexOrder o = IndexOrder::kMajor;
    if (!parse_index_order(c.order, o)) {
      throw std::invalid_argument("run_tuned: unknown index order '" + c.order + "'");
    }
    RunRequest req;
    req.strategy = s;
    req.order = o;
    req.local_size = c.local_size;
    req.variant = variant;
    req.iterations = iterations;
    RunResult r = run(problem, req);
    const double t = r.per_iter_us;
    priced[{c.order, c.local_size}] = std::move(r);
    return t;
  };

  const tune::TuneOutcome out = tune::tune_or_replay(key, candidates, price);
  TunedRunResult tr;
  tr.entry = out.entry;
  tr.from_cache = out.from_cache;
  tr.candidates_tried = out.candidates_tried;
  tr.result = priced.at({out.entry.order, out.entry.local_size});
  return tr;
}

void DslashRunner::run_functional(DslashProblem& problem, Strategy s, IndexOrder o,
                                  int local_size, bool use_syclcplx) const {
  minisycl::queue q(minisycl::ExecMode::functional, minisycl::QueueOrder::in_order, machine_);
  dispatch(q, problem, s, o, local_size, use_syclcplx, nullptr, {});
}

ksan::SanitizerReport DslashRunner::sanitize(DslashProblem& problem, Strategy s, IndexOrder o,
                                             int local_size, bool use_syclcplx) const {
  const DslashArgs<dcomplex> args = problem.args();
  return with_kernel(problem, s, o, local_size, use_syclcplx, [&](const auto& kernel) {
    using K = std::decay_t<decltype(kernel)>;
    return ksan::sanitize_launch(dslash_launch<K>(args, args.sites, s, local_size), kernel,
                                 {}, config_label(s, o, local_size));
  });
}

}  // namespace milc
