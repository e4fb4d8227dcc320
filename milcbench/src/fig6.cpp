// fig6.cpp — the fig6-sweep workload: every Fig. 6 configuration profiled
// once on one L^4 problem (strategy x index order x paper local size, the
// 3LP-1 variant block, the QUDA recon-18 line).  Almost all of its host time
// is minisycl lane tracing plus gpusim modelling; it does no halo, solver or
// serve work.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "core/dslash_ref.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"
#include "qudaref/staggered_test.hpp"
#include "workloads.hpp"

namespace milcbench {
namespace {

/// L >= 12: at L = 8 the ladder is a fill-limited artefact (3LP-1/1LP is
/// 16.8x against the paper's ~2x).  Paper scale (L = 32) is 10-15x slower.
constexpr int kL = 12;
constexpr int kSetups = 3;
/// Kernels reorder the same double-precision sums; 1e-10 is far above that
/// roundoff and far below any wrong neighbour or link.
constexpr double kRefTol = 1e-10;

struct Config {
  milc::RunRequest req;
  std::string label;
};

std::vector<Config> fig6_configs(std::int64_t sites) {
  using namespace milc;
  std::vector<Config> out;
  for (Strategy s : all_strategies()) {
    for (IndexOrder o : orders_of(s)) {
      for (int ls : paper_local_sizes(s, o, sites)) {
        out.push_back({RunRequest{.strategy = s, .order = o, .local_size = ls}, ""});
      }
    }
  }
  for (Variant v : fig6_variants()) {
    if (v == Variant::SYCL) continue;
    for (int ls : paper_local_sizes(Strategy::LP3_1, IndexOrder::kMajor, sites)) {
      out.push_back({RunRequest{.strategy = Strategy::LP3_1,
                                .order = IndexOrder::kMajor,
                                .local_size = ls,
                                .variant = v},
                     ""});
    }
  }
  for (Config& c : out) {
    c.label = config_label(c.req.strategy, c.req.order, c.req.local_size);
    if (c.req.variant != Variant::SYCL) {
      c.label += " [";
      c.label += variant_info(c.req.variant).name;
      c.label += ']';
    }
  }
  return out;
}

std::uint64_t field_hash(const milc::ColorField& f) {
  Digest d;
  d.bytes(f.data(), f.bytes());
  return d.value();
}

void digest_stats(Digest& d, const gpusim::KernelStats& s) {
  d.str(s.name);
  d.str(s.fault);
  d.i64(s.launch.global_size);
  d.i64(s.launch.local_size);
  d.i64(s.launch.shared_bytes_per_group);
  d.i64(s.launch.regs_per_thread);
  d.i64(s.launch.num_phases);
  d.i64(s.occupancy.groups_per_sm);
  d.i64(s.occupancy.warps_per_sm);
  d.f64(s.occupancy.theoretical);
  d.f64(s.occupancy.achieved);
  d.i64(s.occupancy.waves);
  d.str(s.occupancy.limiter);
  const gpusim::TraceCounters& c = s.counters;
  for (std::uint64_t v :
       {c.work_items, c.warps, c.warp_issue_slots, c.fp64_warp_slots, c.flops,
        c.active_lane_ops, c.possible_lane_ops, c.branch_events, c.divergent_branches,
        c.global_load_ops, c.global_store_ops, c.l1_tag_requests_global, c.l1_sector_hits,
        c.l1_sector_misses, c.l2_sector_requests, c.l2_sector_hits, c.l2_sector_misses,
        c.dram_sectors, c.dram_row_hits, c.dram_row_misses, c.shared_ops, c.shared_wavefronts,
        c.shared_wavefronts_ideal, c.atomic_ops, c.atomic_lane_updates,
        c.atomic_serial_replays, c.barrier_warp_events}) {
    d.u64(v);
  }
  const gpusim::TimingBreakdown& t = s.timing;
  for (double v : {t.dram_s, t.latency_s, t.l1_s, t.shared_s, t.issue_s, t.atomic_s,
                   t.barrier_s, t.total_s}) {
    d.f64(v);
  }
  d.str(t.bound_by);
  for (double v : {s.duration_us, s.gflops, s.sm_throughput_pct, s.peak_pct,
                   s.l1_throughput_pct, s.l1_miss_pct, s.l2_miss_pct, s.shared_kb_per_group,
                   s.avg_divergent_branches}) {
    d.f64(v);
  }
}

/// gpusim's bound_by names as a number: 1 dram, 2 latency, 3 l1, 4 shared,
/// 5 issue (0: none).
double bound_code(const char* b) {
  const char* names[] = {"dram", "latency", "l1", "shared", "issue"};
  for (int i = 0; i < 5; ++i) {
    if (std::string(b) == names[i]) return i + 1;
  }
  return 0;
}

}  // namespace

Outcome run_fig6_sweep(const Options& opt, Tracer& tr) {
  using namespace milc;
  Outcome out;
  const std::uint64_t gauge_seed = derive_seed(opt.seed, 1);

  std::unique_ptr<DslashProblem> problem;
  run_setups(kSetups, tr, out, [&] {
    problem.reset();
    problem = in_span(tr, "lattice.build", "L" + std::to_string(kL),
                      [&] { return std::make_unique<DslashProblem>(kL, gauge_seed); });
  });

  const std::vector<Config> configs = fig6_configs(problem->sites());
  const DslashRunner runner;
  std::vector<RunResult> results(configs.size());
  std::vector<std::uint64_t> profiled_hash(configs.size());
  qudaref::StaggeredResult q18;
  std::uint64_t quda_hash = 0;
  std::vector<std::uint64_t> digests;
  int quda_launches = 0;

  run_passes(opt, tr, out, [&](int) {
    double host_s = 0.0;
    in_span(tr, "pass", {}, [&] {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        in_span(tr, "fig6.config", configs[i].label, [&] {
          const Clock::time_point t0 = Clock::now();
          results[i] = in_span(tr, "core.profiled_dslash", configs[i].label,
                               [&] { return runner.run(*problem, configs[i].req); });
          host_s += seconds_since(t0);
        });
        profiled_hash[i] = field_hash(problem->c());
      }
      in_span(tr, "fig6.config", "QUDA recon-18", [&] {
        const Clock::time_point t0 = Clock::now();
        in_span(tr, "qudaref.run", "QUDA recon-18", [&] {
          qudaref::StaggeredDslashTest quda(*problem);
          quda_launches = static_cast<int>(quda.tuning_candidates().size());
          q18 = quda.run(Reconstruct::k18);
        });
        host_s += seconds_since(t0);
      });
      quda_hash = field_hash(problem->c());
    });

    // Output check, outside the timed region: every profiled output is the
    // functional output bit for bit, and within roundoff of the reference.
    in_span(tr, "check", {}, [&] {
      ColorField ref(problem->geom(), problem->target_parity());
      in_span(tr, "core.reference_dslash", {}, [&] {
        dslash_reference(problem->view(), problem->neighbors(), problem->b(), ref);
      });
      const auto verify = [&](const std::string& label, std::uint64_t prof_hash) {
        ++out.attempted;
        if (field_hash(problem->c()) != prof_hash) {
          out.fail(label + ": profiled output differs from the functional output");
        } else if (const double err = max_abs_diff(problem->c(), ref); !(err <= kRefTol)) {
          out.fail(label + ": max |c - dslash_reference| = " + std::to_string(err));
        }
      };
      for (std::size_t i = 0; i < configs.size(); ++i) {
        const RunRequest& r = configs[i].req;
        in_span(tr, "core.functional_dslash", configs[i].label, [&] {
          runner.run_functional(*problem, r.strategy, r.order, r.local_size,
                                variant_info(r.variant).use_syclcplx);
        });
        verify(configs[i].label, profiled_hash[i]);
      }
      in_span(tr, "qudaref.functional", "QUDA recon-18", [&] {
        qudaref::StaggeredDslashTest quda(*problem);
        quda.run_functional(Reconstruct::k18);
      });
      verify("QUDA recon-18", quda_hash);
    });

    Digest d;
    for (const RunResult& r : results) {
      d.str(r.label);
      digest_stats(d, r.stats);
      d.f64(r.kernel_us);
      d.f64(r.per_iter_us);
      d.f64(r.gflops);
    }
    d.i64(q18.local_size);
    d.f64(q18.kernel_us);
    d.f64(q18.per_iter_us);
    d.f64(q18.gflops);
    digest_stats(d, q18.stats);
    digests.push_back(d.value());
    return host_s;
  });

  out.check_digests(digests);

  // --- simulated metrics (identical in every pass) --------------------------
  std::map<std::string, double> best;
  const RunResult* best3 = nullptr;
  double peak = q18.gflops;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const std::string s = to_string(configs[i].req.strategy);
    best[s] = std::max(best[s], r.gflops);
    peak = std::max(peak, r.gflops);
    if (configs[i].req.strategy == Strategy::LP3_1 && (best3 == nullptr || r.gflops > best3->gflops))
      best3 = &r;
  }
  MetricTable& m = out.metrics;
  m.sim("sim_gflops_3lp1", best3->gflops, "GF/s");
  m.sim("sim_gflops_peak", peak, "GF/s");
  for (Strategy s : all_strategies()) {
    m.sim(std::string("core.best_gflops.") + to_string(s), best[to_string(s)], "GF/s");
  }
  m.set("core.launches", static_cast<double>(configs.size() + quda_launches), "count");

  const gpusim::KernelStats& st = best3->stats;
  m.sim("gpusim.kernel_us", st.duration_us, "us");
  m.sim("gpusim.occupancy", st.occupancy.achieved, "fraction");
  m.sim("gpusim.bound_by", bound_code(st.timing.bound_by), "enum");
  m.sim("gpusim.dram_sectors", static_cast<double>(st.counters.dram_sectors), "count");
  m.sim("gpusim.l1_tag_requests", static_cast<double>(st.counters.l1_tag_requests_global),
        "count");
  m.sim("gpusim.shared_wavefronts", static_cast<double>(st.counters.shared_wavefronts), "count");
  m.sim("gpusim.flops", static_cast<double>(st.counters.flops), "count");
  m.sim("gpusim.dram_bytes", static_cast<double>(st.counters.dram_sectors) * 32.0, "B_computed");
  const gpusim::TimingBreakdown& t = st.timing;
  m.sim("gpusim.t_dram_us", t.dram_s * 1e6, "us");
  m.sim("gpusim.t_latency_us", t.latency_s * 1e6, "us");
  m.sim("gpusim.t_l1_us", t.l1_s * 1e6, "us");
  m.sim("gpusim.t_shared_us", t.shared_s * 1e6, "us");
  m.sim("gpusim.t_issue_us", t.issue_s * 1e6, "us");
  m.sim("gpusim.t_atomic_us", t.atomic_s * 1e6, "us");
  m.sim("gpusim.t_barrier_us", t.barrier_s * 1e6, "us");

  m.sim("qudaref.gflops_recon18", q18.gflops, "GF/s");
  m.sim("fidelity.3lp1_over_1lp_x", best["3LP-1"] / best["1LP"], "x");
  m.sim("fidelity.3lp1_vs_quda_pct", 100.0 * (best["3LP-1"] / q18.gflops - 1.0), "%");
  m.set("fidelity.lattice_L", kL, "extent", "sim");

  out.metrics.sim("goodput_frac",
                  out.attempted == 0 ? 0.0
                                     : static_cast<double>(out.attempted - out.failed) /
                                           static_cast<double>(out.attempted),
                  "fraction");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "fig6-sweep: L=%d, %zu configurations + QUDA recon-18 line, gauge seed %llu",
                kL, configs.size(), static_cast<unsigned long long>(gauge_seed));
  out.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "best 3LP-1: %s %.1f GF/s, bound by %s; QUDA recon-18 %.1f GF/s "
                "(fidelity unvalidated at L=%d: the paper's 698 / 633.7 GF/s are L=32)",
                best3->label.c_str(), best3->gflops, st.timing.bound_by, q18.gflops, kL);
  out.notes.emplace_back(buf);
  return out;
}

}  // namespace milcbench
