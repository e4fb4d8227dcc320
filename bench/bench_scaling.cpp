// bench_scaling — strong and weak multi-device scaling of the best SYCL
// Dslash (3LP-1 k-major /768) under the halo-exchange runner.
//
// Strong scaling: the L^4 lattice of bench_fig6 is split across 1, 2, 4
// and 8 simulated A100s (t split first, then z, then y — the splits with
// the smallest surface-to-volume ratio at these shapes).  The 1-device row
// is *exactly* bench_fig6's "3LP-1 k-major /768" SYCL row: a 1x1x1x1 grid
// runs the halo pipeline as one interior launch over the whole lattice,
// priced like DslashRunner's launch, and this bench asserts the equality.
// Weak scaling: every device keeps an L x L x L x L/2 block and the
// lattice grows along t with the device count.
//
// Every grid is also self-verified bit-for-bit: the gathered multi-device
// functional output must equal the single-device functional output of the
// same strategy with max|diff| == 0.0, or the bench exits non-zero.
// Multi-node mode (--nodes N): the same strong/weak sweeps priced over the
// two-level interconnect — N node groups of NVLink devices joined by an
// InfiniBand-like fabric (gpusim::cluster).  The partition grid comes from
// the topology-aware choose_grid, every row separates intra-node (NVLink)
// from inter-node (fabric) bytes and wire time, and every grid is verified
// bit-for-bit against BOTH the single-device functional output and the same
// grid run on a single NVLink island — placement must never change results.
//
// Chaos mode (--faults <seed>): instead of the scaling sweeps, the bench
// runs seeded fault storms against the hardened multi-device path — link
// storms on the 2- and 4-device grids, a scheduled all-kinds scenario
// (drop + corrupt + delay + device loss in one run), and a sharded-CG solve
// with a mid-solve device loss.  With --nodes 2 two fabric scenarios join
// the storm: a link storm over the 2x2 cluster (faults hit the aggregated
// fabric wires) and a scheduled node loss (both devices of node n1 die at
// once; the runner must fail over below the survivor count).  Every
// scenario must recover with output bit-for-bit equal to the fault-free run
// and every injected fault enumerated in the report, or the bench exits
// non-zero.  The JSON document carries the fault seed and a recovery
// summary under "meta".
#include <cmath>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "faultsim/faultsim.hpp"
#include "gpusim/fabric.hpp"
#include "multidev/partition.hpp"
#include "multidev/runner.hpp"
#include "multidev/sharded_cg.hpp"

using namespace milc;
using namespace milc::bench;
using namespace milc::multidev;

namespace {

/// The partition grid used for n devices in the strong-scaling sweep.
PartitionGrid strong_grid(int n) {
  switch (n) {
    case 1: return PartitionGrid{};
    case 2: return PartitionGrid::along(3, 2);
    case 4: return PartitionGrid{.devices = {1, 1, 2, 2}};
    case 8: return PartitionGrid{.devices = {1, 2, 2, 2}};
    default: std::fprintf(stderr, "unsupported device count %d\n", n); std::exit(2);
  }
}

/// Bit-for-bit self-check: multi-device functional output vs the
/// single-device functional output of the same kernel configuration.
double verify_exact(const Coords& dims, std::uint64_t seed, const PartitionGrid& grid,
                    const RunRequest& req) {
  const DslashRunner single;
  const MultiDeviceRunner multi;
  DslashProblem problem(dims, seed);
  single.run_functional(problem, req.strategy, req.order, req.local_size);
  const ColorField expected = problem.c();
  problem.c().zero();
  multi.run_functional(problem, grid, req.strategy, req.order, req.local_size);
  return max_abs_diff(expected, problem.c());
}

struct ScalingRow {
  const char* kind;  ///< "strong" | "weak"
  MultiDevResult res;
  double speedup;     ///< vs the 1-device row of the same sweep
  double efficiency;  ///< speedup / devices (strong), throughput ratio (weak)
  double diff;        ///< verification max|multi - single|, must be 0.0
};

void print_row(const ScalingRow& r) {
  std::printf("  %-28s %d dev  %9.1f GF/s  speedup %5.2fx  eff %5.1f%%  overlap %5.1f%%  "
              "comm %4.1f%%  surface %4.1f%%  verify %s\n",
              r.res.label.c_str(), r.res.devices, r.res.gflops, r.speedup,
              100.0 * r.efficiency, 100.0 * r.res.overlap_efficiency,
              100.0 * r.res.comm_fraction, 100.0 * r.res.surface_fraction,
              r.diff == 0.0 ? "exact" : "MISMATCH");
}

void emit(JsonSink& json, std::FILE* csv, const ScalingRow& r) {
  json.begin_row();
  json.field("kind", std::string(r.kind));
  json.field("label", r.res.label);
  json.field("devices", static_cast<std::int64_t>(r.res.devices));
  json.field("gflops", r.res.gflops);
  json.field("per_iter_us", r.res.per_iter_us);
  json.field("speedup", r.speedup);
  json.field("efficiency", r.efficiency);
  json.field("overlap_efficiency", r.res.overlap_efficiency);
  json.field("comm_fraction", r.res.comm_fraction);
  json.field("surface_fraction", r.res.surface_fraction);
  json.field("halo_bytes", r.res.halo_bytes);
  json.field("max_abs_diff", r.diff);
  json.end_row();
  if (csv != nullptr) {
    std::fprintf(csv, "\"%s\",%s,%d,%.3f,%.3f,%.4f,%.4f,%.4f,%.4f,%.4f,%lld,%.17g\n",
                 r.res.label.c_str(), r.kind, r.res.devices, r.res.gflops, r.res.per_iter_us,
                 r.speedup, r.efficiency, r.res.overlap_efficiency, r.res.comm_fraction,
                 r.res.surface_fraction, static_cast<long long>(r.res.halo_bytes), r.diff);
  }
}

// ---------------------------------------------------------------------------
// Chaos mode
// ---------------------------------------------------------------------------

/// One grid-level chaos scenario: a fault plan against the hardened runner.
struct ChaosOutcome {
  bool ok = true;
  MultiDevResult res;
  double diff = 0.0;
};

void print_faults(const std::vector<faultsim::FaultEvent>& faults) {
  for (const faultsim::FaultEvent& ev : faults) {
    std::printf("      [%-12s] %s occurrence %llu: %s\n", faultsim::to_string(ev.kind),
                ev.site.c_str(), static_cast<unsigned long long>(ev.occurrence),
                ev.detail.c_str());
  }
}

ChaosOutcome run_chaos_grid(const char* name, const Options& opt, const PartitionGrid& grid,
                            const faultsim::FaultPlan& plan, const RunRequest& req,
                            JsonSink& json,
                            const gpusim::NodeTopology& topo = gpusim::NodeTopology{}) {
  // Fault-free expectation first (no injector installed).
  const DslashRunner single;
  DslashProblem clean(opt.L, opt.seed);
  single.run_functional(clean, req.strategy, req.order, req.local_size);

  DslashProblem problem(opt.L, opt.seed);
  const MultiDeviceRunner multi;
  MultiDevRequest mreq;
  mreq.grid = grid;
  mreq.req = req;
  mreq.topo = topo;
  ChaosOutcome out;
  {
    faultsim::ScopedFaultInjection fi(plan);
    out.res = multi.run(problem, mreq);
  }
  out.diff = max_abs_diff(clean.c(), problem.c());
  out.ok = out.res.recovered && out.diff == 0.0 && !out.res.faults.empty();

  const ExchangeReport& xr = out.res.exchange;
  std::printf("  %-22s %d dev -> %-10s faults %3zu  drops %2d corrupt %2d delay %2d  "
              "retrans %2d rounds %d  failovers %zu  %s\n",
              name, grid.total(), out.res.final_grid.label().c_str(), out.res.faults.size(),
              xr.drops, xr.corruptions, xr.delays, xr.retransmissions, xr.rounds,
              out.res.failovers.size(),
              out.ok ? (out.diff == 0.0 ? "recovered exact" : "recovered")
                     : "NOT RECOVERED");
  print_faults(out.res.faults);

  json.begin_row();
  json.field("scenario", std::string(name));
  json.field("devices", static_cast<std::int64_t>(grid.total()));
  json.field("nodes", static_cast<std::int64_t>(out.res.nodes));
  json.field("final_grid", out.res.final_grid.label());
  json.field("recovered", static_cast<std::int64_t>(out.res.recovered ? 1 : 0));
  json.field("max_abs_diff", out.diff);
  json.field("faults", static_cast<std::int64_t>(out.res.faults.size()));
  json.field("drops", static_cast<std::int64_t>(xr.drops));
  json.field("corruptions", static_cast<std::int64_t>(xr.corruptions));
  json.field("delays", static_cast<std::int64_t>(xr.delays));
  json.field("retransmissions", static_cast<std::int64_t>(xr.retransmissions));
  json.field("rounds", static_cast<std::int64_t>(xr.rounds));
  json.field("failovers", static_cast<std::int64_t>(out.res.failovers.size()));
  json.field("recovery_us", out.res.recovery_us);
  json.field("spares_consumed", static_cast<std::int64_t>(out.res.spares_consumed));
  json.field("rejoins", static_cast<std::int64_t>(out.res.rejoins));
  json.field("capacity_restored", static_cast<std::int64_t>(out.res.capacity_restored));
  json.field("rereplicated_bytes", out.res.rereplicated_bytes);
  json.field("rereplication_us", out.res.rereplication_us);
  json.end_row();
  return out;
}

int run_chaos(const Options& opt, const RunRequest& req) {
  std::printf("\nChaos mode: seeded fault storms against the hardened multi-device path\n");
  std::printf("fault seed %llu; every scenario must recover bit-for-bit\n\n",
              static_cast<unsigned long long>(opt.fault_seed));
  JsonSink json(opt.json_path, "scaling-chaos");
  bool ok = true;
  int scenarios = 0;

  // -- seeded link storms on the 2- and 4-device grids -----------------------
  for (const int n : {2, 4}) {
    if (n > opt.max_devices) continue;
    faultsim::FaultPlan plan;
    plan.seed = opt.fault_seed;
    plan.p_msg_drop = 0.25;
    plan.p_msg_corrupt = 0.25;
    plan.p_msg_delay = 0.25;
    const char* name = n == 2 ? "link-storm-2dev" : "link-storm-4dev";
    ok &= run_chaos_grid(name, opt, strong_grid(n), plan, req, json).ok;
    ++scenarios;
  }

  // -- every fault kind in one scheduled run ---------------------------------
  // The loss of device r3 fails the 4-device grid over to its fallback; the
  // message faults are pinned to the r0<->r1 link, which survives the
  // re-partition, so all four kinds provably fire in a single recovered run.
  if (opt.max_devices >= 4) {
    faultsim::FaultPlan plan;
    plan.seed = opt.fault_seed;
    using faultsim::FaultKind;
    using faultsim::ScheduledFault;
    plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 0, 1, "device r3"});
    plan.schedule.push_back(ScheduledFault{FaultKind::msg_drop, 0, 1, "halo-exchange r0->r1"});
    plan.schedule.push_back(
        ScheduledFault{FaultKind::msg_corrupt, 1, 1, "halo-exchange r0->r1"});
    plan.schedule.push_back(ScheduledFault{FaultKind::msg_delay, 0, 1, "halo-exchange r1->r0"});
    const ChaosOutcome out =
        run_chaos_grid("all-kinds-4dev", opt, strong_grid(4), plan, req, json);
    ok &= out.ok;
    bool drop = false, corrupt = false, delay = false, loss = false;
    for (const faultsim::FaultEvent& ev : out.res.faults) {
      drop |= ev.kind == faultsim::FaultKind::msg_drop;
      corrupt |= ev.kind == faultsim::FaultKind::msg_corrupt;
      delay |= ev.kind == faultsim::FaultKind::msg_delay;
      loss |= ev.kind == faultsim::FaultKind::device_loss;
    }
    if (!(drop && corrupt && delay && loss)) {
      std::printf("  all-kinds-4dev: a scheduled fault kind did not fire\n");
      ok = false;
    }
    ++scenarios;
  }

  // -- fabric-tier scenarios (--nodes 2) -------------------------------------
  // The same storms must recover when the four devices live in two node
  // groups: the message faults now also hit the aggregated fabric wires
  // ("fabric-exchange ... n0->n1" sites), and a scheduled node loss takes
  // both devices of n1 at once, forcing a failover below the survivor count.
  if (opt.nodes >= 2 && opt.max_devices >= 4) {
    const gpusim::NodeTopology topo = gpusim::cluster(2, 2);
    {
      faultsim::FaultPlan plan;
      plan.seed = opt.fault_seed;
      plan.p_msg_drop = 0.25;
      plan.p_msg_corrupt = 0.25;
      plan.p_msg_delay = 0.25;
      ok &= run_chaos_grid("fabric-storm-2x2", opt, strong_grid(4), plan, req, json, topo).ok;
      ++scenarios;
    }
    {
      faultsim::FaultPlan plan;
      plan.seed = opt.fault_seed;
      plan.schedule.push_back(
          faultsim::ScheduledFault{faultsim::FaultKind::node_loss, 0, 1, "node n1"});
      const ChaosOutcome out =
          run_chaos_grid("node-loss-2x2", opt, strong_grid(4), plan, req, json, topo);
      ok &= out.ok && !out.res.failovers.empty();
      if (out.res.failovers.empty()) {
        std::printf("  node-loss-2x2: the node loss did not trigger a failover\n");
        ok = false;
      }
      ++scenarios;
    }
  }

  // -- elastic recovery: hot spares and live rejoin --------------------------
  // With a spare inventory the hardened runner re-replicates a lost shard
  // onto a standby instead of shrinking; with a scheduled heal a stickily
  // lost device returns and the run rejoins the abandoned grid.  Either way
  // the final grid must be at full capacity and the output bit-for-bit.
  ElasticTally elastic;
  double total_recovery_us = 0.0;
  const auto tally = [&](const auto& r) {  // a MultiDevResult or a ShardedCgResult
    elastic += r;
    total_recovery_us += r.recovery_us;
  };
  if (opt.spares > 0 && opt.max_devices >= 2) {
    // Hot-spare re-replication: the shard of the lost device moves to a
    // standby over the priced link model; the grid never shrinks.
    gpusim::NodeTopology topo;
    topo.spares.devices_per_node = opt.spares;
    faultsim::FaultPlan plan;
    plan.seed = opt.fault_seed;
    plan.schedule.push_back(
        faultsim::ScheduledFault{faultsim::FaultKind::device_loss, 0, 1, "device r1"});
    const ChaosOutcome out =
        run_chaos_grid("hot-spare-2dev", opt, strong_grid(2), plan, req, json, topo);
    ok &= out.ok;
    tally(out.res);
    if (out.res.spares_consumed < 1 ||
        out.res.final_grid.label() != strong_grid(2).label()) {
      std::printf("  hot-spare-2dev: expected a spare adoption at full capacity "
                  "(consumed %d, final %s)\n",
                  out.res.spares_consumed, out.res.final_grid.label().c_str());
      ok = false;
    }
    ++scenarios;
  }
  if (opt.max_devices >= 2) {
    // Kill-then-heal: no spares, so the loss shrinks the grid — then the
    // scheduled heal returns the device and the run rejoins the full grid.
    faultsim::FaultPlan plan;
    plan.seed = opt.fault_seed;
    plan.schedule.push_back(
        faultsim::ScheduledFault{faultsim::FaultKind::device_loss, 0, 1, "device r1"});
    plan.schedule.push_back(
        faultsim::ScheduledFault{faultsim::FaultKind::heal, 0, 1, "heal/device r1"});
    const ChaosOutcome out =
        run_chaos_grid("kill-heal-2dev", opt, strong_grid(2), plan, req, json);
    ok &= out.ok;
    tally(out.res);
    if (out.res.rejoins < 1 || out.res.final_grid.label() != strong_grid(2).label()) {
      std::printf("  kill-heal-2dev: expected a rejoin back to full capacity "
                  "(rejoins %d, final %s)\n",
                  out.res.rejoins, out.res.final_grid.label().c_str());
      ok = false;
    }
    ++scenarios;
  }
  if (opt.spares > 0 && opt.nodes >= 2 && opt.max_devices >= 4) {
    // Node loss with a standby node: every shard of the lost node group
    // re-replicates across the fabric; capacity survives whole-node failure.
    gpusim::NodeTopology topo = gpusim::cluster(2, 2);
    topo.spares.nodes = 1;
    faultsim::FaultPlan plan;
    plan.seed = opt.fault_seed;
    plan.schedule.push_back(
        faultsim::ScheduledFault{faultsim::FaultKind::node_loss, 0, 1, "node n1"});
    const ChaosOutcome out =
        run_chaos_grid("node-spare-2x2", opt, strong_grid(4), plan, req, json, topo);
    ok &= out.ok;
    tally(out.res);
    if (out.res.spares_consumed < 1 ||
        out.res.final_grid.label() != strong_grid(4).label()) {
      std::printf("  node-spare-2x2: expected standby-node adoption at full capacity "
                  "(consumed %d, final %s)\n",
                  out.res.spares_consumed, out.res.final_grid.label().c_str());
      ok = false;
    }
    ++scenarios;
  }

  // -- device loss during a sharded CG solve ---------------------------------
  {
    const Coords dims{8, 8, 8, 12};
    const double mass = 0.5;
    ShardedCgConfig cfg;
    cfg.cg.rel_tol = 1e-8;
    cfg.cg.max_iterations = 400;
    cfg.checkpoint_interval = 8;

    ShardedCgSolver clean_solver(dims, opt.seed, mass, PartitionGrid::along(3, 2), cfg);
    ColorField b(clean_solver.geom(), Parity::Even);
    b.fill_random(opt.seed ^ 0x5a5a5a5aULL);
    ColorField x_clean(clean_solver.geom(), Parity::Even);
    const ShardedCgResult clean_res = clean_solver.solve(b, x_clean);

    ShardedCgSolver solver(dims, opt.seed, mass, PartitionGrid::along(3, 2), cfg);
    ColorField x(solver.geom(), Parity::Even);
    faultsim::FaultPlan plan;
    plan.seed = opt.fault_seed;
    plan.schedule.push_back(
        faultsim::ScheduledFault{faultsim::FaultKind::device_loss, 30, 1, "device r"});
    ShardedCgResult res;
    {
      faultsim::ScopedFaultInjection fi(plan);
      res = solver.solve(b, x);
    }
    const double diff = max_abs_diff(x, x_clean);
    const bool cg_ok = res.cg.converged && res.recovered_all && clean_res.cg.converged &&
                       res.failovers_observed >= 1 && res.restarts >= 1 && diff == 0.0;
    std::printf("  %-22s %s\n", "cg-device-loss", res.summary().c_str());
    std::printf("  %-22s solution vs fault-free solve: max|diff| = %.3g (%s)\n", "",
                diff, diff == 0.0 ? "bit-for-bit" : "MISMATCH");
    print_faults(res.faults);
    ok &= cg_ok;
    ++scenarios;

    json.begin_row();
    json.field("scenario", std::string("cg-device-loss"));
    json.field("devices", static_cast<std::int64_t>(2));
    json.field("final_grid", res.final_grid.label());
    json.field("recovered", static_cast<std::int64_t>(cg_ok ? 1 : 0));
    json.field("max_abs_diff", diff);
    json.field("faults", static_cast<std::int64_t>(res.faults.size()));
    json.field("iterations", static_cast<std::int64_t>(res.cg.iterations));
    json.field("restarts", static_cast<std::int64_t>(res.restarts));
    json.field("failovers", static_cast<std::int64_t>(res.failovers_observed));
    json.field("checkpoints", static_cast<std::int64_t>(res.checkpoints_taken));
    json.field("relative_residual", res.cg.relative_residual);
    json.end_row();

    json.meta("cg_iterations", static_cast<std::int64_t>(res.cg.iterations));
    json.meta("cg_restarts", static_cast<std::int64_t>(res.restarts));
    json.meta("cg_failovers", static_cast<std::int64_t>(res.failovers_observed));

    // -- kill-then-heal inside the solve, under async checkpointing ----------
    // The loss shrinks the grid mid-solve; the heal consult on the very next
    // apply rejoins the abandoned grid.  Async mode means the restore that
    // follows each failover comes from a durable, audited snapshot — the
    // solution must still be bit-for-bit the fault-free one, and the solve
    // must end back at full capacity.
    {
      ShardedCgConfig acfg = cfg;
      acfg.async_checkpoint = true;
      ShardedCgSolver hsolver(dims, opt.seed, mass, PartitionGrid::along(3, 2), acfg);
      ColorField xh(hsolver.geom(), Parity::Even);
      faultsim::FaultPlan plan2;
      plan2.seed = opt.fault_seed;
      plan2.schedule.push_back(
          faultsim::ScheduledFault{faultsim::FaultKind::device_loss, 30, 1, "device r"});
      plan2.schedule.push_back(
          faultsim::ScheduledFault{faultsim::FaultKind::heal, 0, 1, "heal/device r"});
      ShardedCgResult hres;
      {
        faultsim::ScopedFaultInjection fi(plan2);
        hres = hsolver.solve(b, xh);
      }
      const double hdiff = max_abs_diff(xh, x_clean);
      const bool heal_ok = hres.cg.converged && hres.recovered_all && hres.rejoins >= 1 &&
                           hres.capacity_restored >= 1 && hres.restarts >= 1 &&
                           hres.final_grid.label() == PartitionGrid::along(3, 2).label() &&
                           hdiff == 0.0;
      std::printf("  %-22s %s\n", "cg-kill-heal-async", hres.summary().c_str());
      std::printf("  %-22s rejoins %d (+%d devices) | solution max|diff| = %.3g (%s)\n",
                  "", hres.rejoins, hres.capacity_restored, hdiff,
                  hdiff == 0.0 ? "bit-for-bit" : "MISMATCH");
      print_faults(hres.faults);
      ok &= heal_ok;
      tally(hres);
      ++scenarios;

      json.begin_row();
      json.field("scenario", std::string("cg-kill-heal-async"));
      json.field("devices", static_cast<std::int64_t>(2));
      json.field("final_grid", hres.final_grid.label());
      json.field("recovered", static_cast<std::int64_t>(heal_ok ? 1 : 0));
      json.field("max_abs_diff", hdiff);
      json.field("rejoins", static_cast<std::int64_t>(hres.rejoins));
      json.field("capacity_restored", static_cast<std::int64_t>(hres.capacity_restored));
      json.field("restarts", static_cast<std::int64_t>(hres.restarts));
      json.field("snapshots_staged", static_cast<std::int64_t>(hres.snapshots_staged));
      json.field("snapshots_promoted", static_cast<std::int64_t>(hres.snapshots_promoted));
      json.end_row();
    }

    // -- async vs synchronous checkpoint overhead (fault-free) ---------------
    // Same cadence, same problem: the async path stages copies and hides the
    // audit apply inside the next iteration's apply window, so its critical
    // path carries measurably fewer operator applications — with an
    // identical, bit-for-bit solution.
    {
      ShardedCgConfig scfg = cfg;  // synchronous (async_checkpoint = false)
      ShardedCgConfig acfg = cfg;
      acfg.async_checkpoint = true;
      ShardedCgSolver ssolver(dims, opt.seed, mass, PartitionGrid::along(3, 2), scfg);
      ShardedCgSolver asolver(dims, opt.seed, mass, PartitionGrid::along(3, 2), acfg);
      ColorField xs(ssolver.geom(), Parity::Even);
      ColorField xa(asolver.geom(), Parity::Even);
      const ShardedCgResult sres = ssolver.solve(b, xs);
      const ShardedCgResult ares = asolver.solve(b, xa);
      const int sync_critical = sres.applies;
      const int async_critical = ares.applies - ares.hidden_applies;
      const double adiff = max_abs_diff(xa, xs);
      const bool async_ok = sres.cg.converged && ares.cg.converged && adiff == 0.0 &&
                            ares.hidden_applies > 0 && async_critical < sync_critical &&
                            ares.snapshots_promoted > 0;
      std::printf("  %-22s sync %d critical applies vs async %d (%d hidden, "
                  "%d staged -> %d promoted)  max|diff| = %.3g  %s\n",
                  "cg-async-overhead", sync_critical, async_critical, ares.hidden_applies,
                  ares.snapshots_staged, ares.snapshots_promoted, adiff,
                  async_ok ? "async cheaper, bit-for-bit" : "ASYNC OVERHEAD CHECK FAILED");
      ok &= async_ok;
      ++scenarios;

      json.begin_row();
      json.field("scenario", std::string("cg-async-overhead"));
      json.field("sync_critical_applies", static_cast<std::int64_t>(sync_critical));
      json.field("async_critical_applies", static_cast<std::int64_t>(async_critical));
      json.field("hidden_applies", static_cast<std::int64_t>(ares.hidden_applies));
      json.field("snapshots_staged", static_cast<std::int64_t>(ares.snapshots_staged));
      json.field("snapshots_promoted", static_cast<std::int64_t>(ares.snapshots_promoted));
      json.field("max_abs_diff", adiff);
      json.end_row();
      json.meta("sync_critical_applies", static_cast<std::int64_t>(sync_critical));
      json.meta("async_critical_applies", static_cast<std::int64_t>(async_critical));
      json.meta("hidden_applies", static_cast<std::int64_t>(ares.hidden_applies));
    }
  }

  // Elastic-recovery roll-up (schema v3 meta keys).
  json.meta("spares", static_cast<std::int64_t>(opt.spares));
  json.meta("spares_consumed", static_cast<std::int64_t>(elastic.spares_consumed));
  json.meta("rejoins", static_cast<std::int64_t>(elastic.rejoins));
  json.meta("capacity_restored_devices", static_cast<std::int64_t>(elastic.capacity_restored));
  json.meta("rereplicated_bytes", elastic.rereplicated_bytes);
  json.meta("rereplication_us", elastic.rereplication_us);
  json.meta("recovery_time_us", total_recovery_us);

  json.meta("mode", std::string("chaos"));
  json.meta("fault_seed", opt.fault_seed);
  json.meta("nodes", static_cast<std::int64_t>(opt.nodes));
  json.meta("scenarios", static_cast<std::int64_t>(scenarios));
  json.meta("all_recovered", static_cast<std::int64_t>(ok ? 1 : 0));

  std::printf("\nchaos verdict: %s\n",
              ok ? "every fault recovered, all outputs bit-for-bit exact"
                 : "RECOVERY OR EXACTNESS FAILURE");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Sanitize mode (--sanitize): every pack/unpack launch of the halo protocol
// replayed under ksan with exact region declarations — the multi-device
// analogue of bench_fig6 --sanitize.  Any error fails the run.
// ---------------------------------------------------------------------------

int run_sanitize(const Options& opt) {
  DslashProblem p0(opt.L, opt.seed);
  print_header("Halo protocol under ksan (sanitized replay)", opt, p0.sites());
  const MultiDeviceRunner multi;
  bool all_clean = true;
  for (const int n : {2, 4, 8}) {
    if (n > opt.max_devices) continue;
    const PartitionGrid grid = strong_grid(n);
    std::printf("\ngrid %s — pack/unpack launches\n", grid.label().c_str());
    DslashProblem ph(opt.L, opt.seed);
    for (const ksan::SanitizerReport& rep : multi.sanitize_halo(ph, grid)) {
      all_clean &= print_sanitize_row(rep);
    }
    std::printf("grid %s — hardened exchange flow (one retransmission)\n",
                grid.label().c_str());
    DslashProblem px(opt.L, opt.seed);
    for (const ksan::SanitizerReport& rep : multi.sanitize_exchange(px, grid)) {
      all_clean &= print_sanitize_row(rep);
    }
  }
  std::printf("\nksan verdict: %s\n",
              all_clean ? "all halo launches clean" : "ERRORS DETECTED");
  return all_clean ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Distributed-sanitizer mode (--dsan): record every scenario's cluster-wide
// event graph and run the dsan checkers (happens-before races, message
// protocol, wire schedule, lints) over it.  Combines with --nodes (fabric
// runs join the sweep) and --faults (hardened retransmit + failover runs
// join it).  Every trace must come back clean.
// ---------------------------------------------------------------------------

int run_dsan(const Options& opt, const RunRequest& req) {
  DslashProblem p0(opt.L, opt.seed);
  print_header("Distributed sanitizer (dsan) over recorded event graphs", opt, p0.sites());
  const MultiDeviceRunner multi;
  bool all_clean = true;

  const auto check_grid = [&](const char* name, const PartitionGrid& grid,
                              const gpusim::NodeTopology& topo,
                              const faultsim::FaultPlan* plan) {
    std::printf("\n%s (grid %s)\n", name, grid.label().c_str());
    DslashProblem problem(opt.L, opt.seed);
    MultiDevRequest mreq;
    mreq.grid = grid;
    mreq.req = req;
    mreq.topo = topo;
    std::vector<ksan::SanitizerReport> reports;
    if (plan != nullptr) {
      faultsim::ScopedFaultInjection fi(*plan);
      reports = multi.dsan_check(problem, mreq);
    } else {
      reports = multi.dsan_check(problem, mreq);
    }
    for (const ksan::SanitizerReport& rep : reports) all_clean &= print_sanitize_row(rep);
  };

  for (const int n : {2, 4, 8}) {
    if (n > opt.max_devices) continue;
    const std::string name = "plain " + std::to_string(n) + "-device run";
    check_grid(name.c_str(), strong_grid(n), gpusim::NodeTopology{}, nullptr);
  }
  if (opt.nodes >= 2 && opt.max_devices >= 4) {
    check_grid("multi-node 2x2 run", strong_grid(4), gpusim::cluster(2, 2), nullptr);
  }
  if (opt.faults && opt.max_devices >= 2) {
    // A corrupted first delivery forces a checksum reject + round-2
    // retransmit; the recorded retry protocol must still check clean.
    faultsim::FaultPlan retx;
    retx.seed = opt.fault_seed;
    retx.schedule.push_back(faultsim::ScheduledFault{faultsim::FaultKind::msg_corrupt, 0, 1,
                                                     "halo-exchange r0->r1"});
    check_grid("hardened retransmit run", strong_grid(2), gpusim::NodeTopology{}, &retx);
    if (opt.max_devices >= 4) {
      faultsim::FaultPlan loss;
      loss.seed = opt.fault_seed;
      loss.schedule.push_back(
          faultsim::ScheduledFault{faultsim::FaultKind::device_loss, 0, 1, "device r3"});
      check_grid("device-loss failover run", strong_grid(4), gpusim::NodeTopology{}, &loss);
    }
    {
      // Elastic recovery traces: the re-replication transfer (Send/Recv/
      // Checksum onto the spare) and the rejoin handshake (Rejoin before
      // Resync) must satisfy the new dsan protocol checks.
      gpusim::NodeTopology spare_topo;
      spare_topo.spares.devices_per_node = 1;
      faultsim::FaultPlan loss;
      loss.seed = opt.fault_seed;
      loss.schedule.push_back(
          faultsim::ScheduledFault{faultsim::FaultKind::device_loss, 0, 1, "device r1"});
      check_grid("hot-spare re-replication run", strong_grid(2), spare_topo, &loss);

      faultsim::FaultPlan heal;
      heal.seed = opt.fault_seed;
      heal.schedule.push_back(
          faultsim::ScheduledFault{faultsim::FaultKind::device_loss, 0, 1, "device r1"});
      heal.schedule.push_back(
          faultsim::ScheduledFault{faultsim::FaultKind::heal, 0, 1, "heal/device r1"});
      check_grid("kill-heal rejoin run", strong_grid(2), gpusim::NodeTopology{}, &heal);
    }
  }
  {
    std::printf("\nsharded-cg short solve (grid %s)\n",
                PartitionGrid::along(3, 2).label().c_str());
    ShardedCgConfig cfg;
    cfg.cg.max_iterations = 6;
    cfg.checkpoint_interval = 2;
    ShardedCgSolver solver(Coords{8, 8, 8, 12}, opt.seed, 0.5, PartitionGrid::along(3, 2),
                           cfg);
    ColorField b(solver.geom(), Parity::Even);
    b.fill_random(opt.seed ^ 0x5a5aULL);
    ColorField x(solver.geom(), Parity::Even);
    for (const ksan::SanitizerReport& rep : solver.dsan_check(b, x)) {
      all_clean &= print_sanitize_row(rep);
    }
  }
  {
    // Async checkpointing emits SnapshotAudit/SnapshotPromote events — the
    // promote-before-audit protocol check runs over this trace.
    std::printf("\nsharded-cg async-checkpoint solve (grid %s)\n",
                PartitionGrid::along(3, 2).label().c_str());
    ShardedCgConfig cfg;
    cfg.cg.max_iterations = 6;
    cfg.checkpoint_interval = 2;
    cfg.async_checkpoint = true;
    ShardedCgSolver solver(Coords{8, 8, 8, 12}, opt.seed, 0.5, PartitionGrid::along(3, 2),
                           cfg);
    ColorField b(solver.geom(), Parity::Even);
    b.fill_random(opt.seed ^ 0x5a5aULL);
    ColorField x(solver.geom(), Parity::Even);
    for (const ksan::SanitizerReport& rep : solver.dsan_check(b, x)) {
      all_clean &= print_sanitize_row(rep);
    }
  }

  std::printf("\ndsan verdict: %s\n",
              all_clean ? "all traces clean" : "ERRORS DETECTED");
  return all_clean ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Multi-node mode (--nodes N)
// ---------------------------------------------------------------------------

/// One multi-node scaling row.  Verification is two-sided: the fabric run
/// must match the single-device functional output AND the same grid run on
/// a single NVLink island — placement prices differently, never computes
/// differently.
struct NodeRow {
  const char* kind;  ///< "strong" | "weak"
  MultiDevResult res;
  PartitionGrid grid;
  double speedup = 1.0;
  double diff_single = 0.0;  ///< vs the single-device functional output
  double diff_island = 0.0;  ///< vs the same grid on one NVLink island
};

void print_node_row(const NodeRow& r) {
  std::printf("  %-26s %d dev / %d node  %9.1f GF/s  speedup %5.2fx  "
              "intra %6.2f MB %7.1f us  inter %6.2f MB %7.1f us  verify %s\n",
              r.res.label.c_str(), r.res.devices, r.res.nodes, r.res.gflops, r.speedup,
              r.res.intra_node_bytes / 1e6, r.res.intra_wire_us,
              r.res.inter_node_bytes / 1e6, r.res.inter_wire_us,
              (r.diff_single == 0.0 && r.diff_island == 0.0) ? "exact" : "MISMATCH");
}

void emit_node_row(JsonSink& json, const NodeRow& r) {
  json.begin_row();
  json.field("kind", std::string(r.kind));
  json.field("label", r.res.label);
  json.field("devices", static_cast<std::int64_t>(r.res.devices));
  json.field("nodes", static_cast<std::int64_t>(r.res.nodes));
  json.field("grid", r.grid.label());
  json.field("gflops", r.res.gflops);
  json.field("per_iter_us", r.res.per_iter_us);
  json.field("speedup", r.speedup);
  json.field("overlap_efficiency", r.res.overlap_efficiency);
  json.field("comm_fraction", r.res.comm_fraction);
  json.field("halo_bytes", r.res.halo_bytes);
  json.field("intra_node_bytes", r.res.intra_node_bytes);
  json.field("inter_node_bytes", r.res.inter_node_bytes);
  json.field("fabric_messages", static_cast<std::int64_t>(r.res.fabric_messages));
  json.field("intra_wire_us", r.res.intra_wire_us);
  json.field("inter_wire_us", r.res.inter_wire_us);
  json.field("max_abs_diff", std::max(r.diff_single, r.diff_island));
  json.end_row();
}

/// One multi-node measurement: the topology-aware choose_grid picks the
/// split, the run is priced over the two-level interconnect, and the output
/// is verified bit-for-bit both ways.
NodeRow run_node_point(const char* kind, const Coords& dims, const Options& opt,
                       const gpusim::NodeTopology& topo, const RunRequest& req,
                       double base_gflops) {
  const MultiDeviceRunner multi;
  DslashProblem problem(dims, opt.seed);
  const PartitionGrid grid = choose_grid(problem.geom(), topo);

  MultiDevRequest mreq;
  mreq.grid = grid;
  mreq.req = req;
  mreq.topo = topo;
  NodeRow row{.kind = kind, .res = multi.run(problem, mreq), .grid = grid};

  // Same grid on one NVLink island: only the prices may differ.
  DslashProblem island(dims, opt.seed);
  MultiDevRequest ireq;
  ireq.grid = grid;
  ireq.req = req;
  const MultiDevResult island_res = multi.run(island, ireq);
  (void)island_res;
  row.diff_island = max_abs_diff(problem.c(), island.c());
  row.diff_single = verify_exact(dims, opt.seed, grid, req);
  row.speedup = base_gflops > 0.0 ? row.res.gflops / base_gflops : 1.0;
  return row;
}

int run_nodes(const Options& opt, const RunRequest& req) {
  DslashProblem p0(opt.L, opt.seed);
  print_header("Multi-node scaling — fabric tier over NVLink node groups", opt, p0.sites());
  std::printf("cluster: %d nodes, NVLink (300 GB/s) inside a node, "
              "HDR-class fabric (24 GB/s NIC) between nodes\n", opt.nodes);

  JsonSink json(opt.json_path, "scaling-nodes");
  bool ok = true;

  std::vector<int> counts;
  for (const int n : {2, 4, 8}) {
    if (n <= opt.max_devices && n % opt.nodes == 0) counts.push_back(n);
  }
  if (counts.empty()) {
    std::fprintf(stderr, "no device count <= %d divides into %d nodes\n", opt.max_devices,
                 opt.nodes);
    return 2;
  }

  std::printf("\nStrong scaling over %d nodes (fixed L=%d lattice)\n", opt.nodes, opt.L);
  double strong_base = 0.0;
  NodeRow last{};
  for (const int n : counts) {
    const gpusim::NodeTopology topo = gpusim::cluster(opt.nodes, n / opt.nodes);
    const NodeRow row = run_node_point("strong", Coords{opt.L, opt.L, opt.L, opt.L}, opt,
                                       topo, req, strong_base);
    if (strong_base == 0.0) strong_base = row.res.gflops;
    ok &= row.diff_single == 0.0 && row.diff_island == 0.0;
    print_node_row(row);
    emit_node_row(json, row);
    last = row;
  }

  std::printf("\nWeak scaling (L x L x L x %d block per device, lattice grows along t)\n",
              opt.L / 2);
  double weak_base = 0.0;
  for (const int n : counts) {
    const gpusim::NodeTopology topo = gpusim::cluster(opt.nodes, n / opt.nodes);
    const Coords dims{opt.L, opt.L, opt.L, opt.L / 2 * n};
    const NodeRow row = run_node_point("weak", dims, opt, topo, req, weak_base);
    if (weak_base == 0.0) weak_base = row.res.gflops;
    ok &= row.diff_single == 0.0 && row.diff_island == 0.0;
    print_node_row(row);
    emit_node_row(json, row);
  }

  json.topology_meta(opt.nodes, last.res.devices / opt.nodes, last.grid.label(),
                     last.res.intra_node_bytes, last.res.inter_node_bytes);
  std::printf("\nmulti-node verdict: %s\n",
              ok ? "all grids bit-for-bit exact across placements"
                 : "EXACTNESS FAILURE");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Wire-format mode (--wire <fp64|fp32|fp16>[+r<18|12|9>]): certify a halo
// wire format against the exact fp64 wire (docs/WIRE.md).  The checks are
// the acceptance criteria of the wire contract:
//   1. the fp64 wire is bit-for-bit the default run (always, as a guard);
//   2. a reduced spinor wire cuts the encoded halo payload by the exact
//      bytes-per-site ratio (>= 2x for fp32, 4x for fp16), and with --nodes
//      the priced inter-node fabric bytes shrink accordingly;
//   3. the reduced-wire Dslash output stays within the format's error floor
//      of the exact output (the wire only perturbs ghost values);
//   4. a sharded CG solve on the reduced wire is *certified*: the
//      reliable-update outer loop converges it to the same answer as the
//      fault-free fp64 solve, verified through an exact-wire true residual.
// Any failed check exits non-zero.
// ---------------------------------------------------------------------------

int run_wire(const Options& opt, const RunRequest& req) {
  WireFormat fmt;
  if (!parse_wire_format(opt.wire, fmt)) {
    std::fprintf(stderr,
                 "bad --wire '%s' (grammar: <fp64|fp32|fp16>[+r<18|12|9>], "
                 "e.g. fp32+r12 — see docs/WIRE.md)\n",
                 opt.wire.c_str());
    return 2;
  }

  DslashProblem p0(opt.L, opt.seed);
  print_header("Halo wire-format certification", opt, p0.sites());
  std::printf("wire %s: %lld B/site spinor halos, %lld B/link gauge frames "
              "(fp64 baseline: 48 B/site, 144 B/link)\n",
              to_string(fmt).c_str(),
              static_cast<long long>(spinor_site_bytes(fmt.spinor)),
              static_cast<long long>(gauge_link_bytes(fmt.gauge)));

  JsonSink json(opt.json_path, "scaling-wire");
  json.wire_meta(to_string(fmt), spinor_site_bytes(fmt.spinor), gauge_link_bytes(fmt.gauge));
  bool ok = true;

  // Pick the exchange shape: >= 2 devices so halos actually move; with
  // --nodes the same grid is priced over the fabric tier.
  int n = opt.max_devices >= 4 ? 4 : 2;
  if (opt.nodes > 1) {
    while (n % opt.nodes != 0 && n <= opt.max_devices) n *= 2;
    if (n > opt.max_devices || n % opt.nodes != 0) {
      std::fprintf(stderr, "no device count <= %d divides into %d nodes\n", opt.max_devices,
                   opt.nodes);
      return 2;
    }
  }
  const PartitionGrid grid = strong_grid(n);
  const gpusim::NodeTopology topo = opt.nodes > 1
                                        ? gpusim::cluster(opt.nodes, n / opt.nodes)
                                        : gpusim::NodeTopology{};
  const MultiDeviceRunner multi;

  const auto run_with = [&](DslashProblem& problem, const WireFormat& w) {
    MultiDevRequest mreq;
    mreq.grid = grid;
    mreq.req = req;
    mreq.topo = topo;
    mreq.wire = w;
    return multi.run(problem, mreq);
  };

  // The exact single-device output every run is compared against.
  const DslashRunner single;
  DslashProblem exact(opt.L, opt.seed);
  single.run_functional(exact, req.strategy, req.order, req.local_size);

  // -- check 1: the fp64 wire is the default run, bit-for-bit ---------------
  DslashProblem p_default(opt.L, opt.seed);
  MultiDevRequest dreq;
  dreq.grid = grid;
  dreq.req = req;
  dreq.topo = topo;
  const MultiDevResult base = multi.run(p_default, dreq);
  DslashProblem p_fp64(opt.L, opt.seed);
  const MultiDevResult fp64_res = run_with(p_fp64, WireFormat{});
  const double fp64_diff = max_abs_diff(p_default.c(), p_fp64.c());
  const bool fp64_ok = fp64_diff == 0.0 && fp64_res.halo_bytes == base.halo_bytes;
  std::printf("\n  fp64 wire vs default run (%s, %d dev): %s\n", grid.label().c_str(), n,
              fp64_ok ? "bit-for-bit, same bytes" : "MISMATCH");
  ok &= fp64_ok;

  // -- check 2 + 3: payload reduction and output accuracy -------------------
  DslashProblem p_wire(opt.L, opt.seed);
  const MultiDevResult wr = run_with(p_wire, fmt);
  const double spinor_ratio =
      wr.halo_bytes > 0 ? static_cast<double>(base.halo_bytes) / wr.halo_bytes : 0.0;
  const double inter_ratio = wr.inter_node_bytes > 0
                                 ? static_cast<double>(base.inter_node_bytes) /
                                       static_cast<double>(wr.inter_node_bytes)
                                 : 0.0;
  const double expected_ratio =
      static_cast<double>(spinor_site_bytes(SpinorWire::fp64)) /
      static_cast<double>(spinor_site_bytes(fmt.spinor));
  const double diff = max_abs_diff(exact.c(), p_wire.c());
  const double floor = wire_error_floor(fmt.spinor);

  std::printf("  halo payload: %lld B -> %lld B per iteration (%.2fx, expected %.0fx)\n",
              static_cast<long long>(base.halo_bytes),
              static_cast<long long>(wr.halo_bytes), spinor_ratio, expected_ratio);
  if (opt.nodes > 1) {
    std::printf("  inter-node fabric bytes: %lld -> %lld (%.2fx incl. frame headers)\n",
                static_cast<long long>(base.inter_node_bytes),
                static_cast<long long>(wr.inter_node_bytes), inter_ratio);
  }
  std::printf("  Dslash output vs exact single-device: max|diff| = %.3g (floor %.0e)\n",
              diff, floor);

  if (fmt.reduced()) {
    // The encoded payload shrinks by exactly the bytes-per-site ratio; the
    // fabric bytes carry 32 B of framing per aggregated message, so they sit
    // just under the payload ratio.
    ok &= spinor_ratio >= expected_ratio - 1e-9 && expected_ratio >= 2.0;
    if (opt.nodes > 1) ok &= inter_ratio >= 0.95 * expected_ratio && inter_ratio >= 1.9;
    ok &= diff > 0.0 ? diff <= floor : true;  // a reduced wire may still be exact
  } else {
    ok &= wr.halo_bytes == base.halo_bytes && diff == 0.0;
  }

  json.begin_row();
  json.field("kind", std::string("dslash"));
  json.field("grid", grid.label());
  json.field("devices", static_cast<std::int64_t>(n));
  json.field("nodes", static_cast<std::int64_t>(wr.nodes));
  json.field("halo_bytes_fp64", base.halo_bytes);
  json.field("halo_bytes_wire", wr.halo_bytes);
  json.field("spinor_reduction", spinor_ratio);
  json.field("inter_node_bytes_fp64", base.inter_node_bytes);
  json.field("inter_node_bytes_wire", wr.inter_node_bytes);
  json.field("inter_node_reduction", inter_ratio);
  json.field("max_abs_diff", diff);
  json.field("fp64_bit_for_bit", static_cast<std::int64_t>(fp64_ok ? 1 : 0));
  json.end_row();

  // -- check 4: certified sharded CG on the reduced wire --------------------
  const Coords dims{8, 8, 8, 12};
  const double mass = 0.5;
  ShardedCgConfig cfg;
  cfg.cg.rel_tol = 1e-8;
  cfg.cg.max_iterations = 800;

  ShardedCgSolver ref_solver(dims, opt.seed, mass, PartitionGrid::along(3, 2), cfg);
  ColorField b(ref_solver.geom(), Parity::Even);
  b.fill_random(opt.seed ^ 0x5a5a5a5aULL);
  ColorField x_ref(ref_solver.geom(), Parity::Even);
  const ShardedCgResult ref = ref_solver.solve(b, x_ref);

  ShardedCgConfig wcfg = cfg;
  wcfg.wire = fmt;
  ShardedCgSolver wire_solver(dims, opt.seed, mass, PartitionGrid::along(3, 2), wcfg);
  ColorField x_wire(wire_solver.geom(), Parity::Even);
  const ShardedCgResult wres = wire_solver.solve(b, x_wire);

  const double cg_diff = max_abs_diff(x_ref, x_wire);
  double x_scale = 0.0;
  for (std::int64_t s = 0; s < x_ref.size(); ++s) {
    for (int ci = 0; ci < kColors; ++ci) {
      x_scale = std::max({x_scale, std::abs(x_ref[s][ci].re), std::abs(x_ref[s][ci].im)});
    }
  }
  const double cg_rel = x_scale > 0.0 ? cg_diff / x_scale : cg_diff;
  // Certification pins the *true* residual (exact fp64 apply) under rel_tol,
  // so the solution error is O(cond * rel_tol) regardless of the wire.
  const bool cg_ok = ref.cg.converged && wres.cg.converged && wres.certified &&
                     (fmt.reduced() ? cg_rel <= 1e-4 : cg_diff == 0.0);
  std::printf("\n  sharded CG on the %s wire (grid %s):\n", to_string(fmt).c_str(),
              PartitionGrid::along(3, 2).label().c_str());
  std::printf("    fp64 : %s\n", ref.summary().c_str());
  std::printf("    %s: %s\n", to_string(fmt).c_str(), wres.summary().c_str());
  std::printf("    solution vs fp64 solve: max|diff| = %.3g (rel %.3g) %s\n", cg_diff,
              cg_rel, cg_ok ? (cg_diff == 0.0 ? "bit-for-bit" : "certified exact")
                            : "NOT CERTIFIED");
  ok &= cg_ok;

  json.begin_row();
  json.field("kind", std::string("sharded-cg"));
  json.field("grid", PartitionGrid::along(3, 2).label());
  json.field("iterations_fp64", static_cast<std::int64_t>(ref.cg.iterations));
  json.field("iterations_wire", static_cast<std::int64_t>(wres.cg.iterations));
  json.field("reliable_updates", static_cast<std::int64_t>(wres.reliable_updates));
  json.field("certified", static_cast<std::int64_t>(wres.certified ? 1 : 0));
  json.field("true_relative_residual", wres.cg.true_relative_residual);
  json.field("max_abs_diff", cg_diff);
  json.field("rel_diff", cg_rel);
  json.end_row();

  json.meta("mode", std::string("wire"));
  json.meta("nodes", static_cast<std::int64_t>(opt.nodes));
  json.meta("spinor_reduction", spinor_ratio);
  json.meta("inter_node_reduction", inter_ratio);
  json.meta("cg_certified", static_cast<std::int64_t>(wres.certified ? 1 : 0));
  json.meta("all_certified", static_cast<std::int64_t>(ok ? 1 : 0));

  std::printf("\nwire verdict: %s\n",
              ok ? "format certified against the exact fp64 wire"
                 : "WIRE CERTIFICATION FAILURE");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  const RunRequest req{.strategy = Strategy::LP3_1,
                       .order = IndexOrder::kMajor,
                       .local_size = 768,
                       .variant = Variant::SYCL};
  if (!opt.wire.empty()) return run_wire(opt, req);
  if (opt.dsan) return run_dsan(opt, req);
  if (opt.sanitize) return run_sanitize(opt);
  if (opt.faults) return run_chaos(opt, req);
  if (opt.nodes > 1) return run_nodes(opt, req);
  const DslashRunner single;
  const MultiDeviceRunner multi;

  DslashProblem p0(opt.L, opt.seed);
  print_header("Multi-device scaling — 3LP-1 k-major /768 with halo exchange", opt,
               p0.sites());
  std::printf("fabric: DGX-A100 link model (NVLink 300 GB/s, 1.9 us; PCIe fallback)\n");

  JsonSink json(opt.json_path, "scaling");
  std::FILE* csv = nullptr;
  if (!opt.csv_path.empty()) {
    csv = std::fopen(opt.csv_path.c_str(), "w");
    if (csv != nullptr) {
      std::fprintf(csv,
                   "label,kind,devices,gflops,per_iter_us,speedup,efficiency,"
                   "overlap_efficiency,comm_fraction,surface_fraction,halo_bytes,"
                   "max_abs_diff\n");
    }
  }

  std::vector<int> counts;
  for (const int n : {1, 2, 4, 8}) {
    if (n <= opt.max_devices) counts.push_back(n);
  }
  bool ok = true;

  // -- strong scaling: fixed L^4, more devices -------------------------------
  std::printf("\nStrong scaling (fixed L=%d lattice)\n", opt.L);
  const RunResult fig6 = single.run(p0, req);  // the bench_fig6 row
  double strong_base = 0.0;
  for (const int n : counts) {
    DslashProblem problem(opt.L, opt.seed);
    MultiDevRequest mreq;
    mreq.grid = strong_grid(n);
    mreq.req = req;
    const MultiDevResult res = multi.run(problem, mreq);
    if (n == 1) {
      strong_base = res.gflops;
      const bool same = res.gflops == fig6.gflops && res.per_iter_us == fig6.per_iter_us;
      std::printf("  1-device row vs bench_fig6 \"%s\": %s\n", fig6.label.c_str(),
                  same ? "identical" : "DIFFERS");
      ok &= same;
    }
    ScalingRow row{.kind = "strong",
                   .res = res,
                   .speedup = strong_base > 0.0 ? res.gflops / strong_base : 1.0,
                   .efficiency = strong_base > 0.0 ? res.gflops / strong_base / n : 1.0,
                   .diff = verify_exact(Coords{opt.L, opt.L, opt.L, opt.L}, opt.seed,
                                        mreq.grid, req)};
    ok &= row.diff == 0.0;
    print_row(row);
    emit(json, csv, row);
  }

  // -- weak scaling: fixed L x L x L x L/2 block per device ------------------
  std::printf("\nWeak scaling (L x L x L x %d block per device, lattice grows along t)\n",
              opt.L / 2);
  double weak_base = 0.0;
  for (const int n : counts) {
    const Coords dims{opt.L, opt.L, opt.L, opt.L / 2 * n};
    DslashProblem problem(dims, opt.seed);
    MultiDevRequest mreq;
    mreq.grid = PartitionGrid::along(3, n);
    mreq.req = req;
    const MultiDevResult res = multi.run(problem, mreq);
    if (n == 1) weak_base = res.gflops;
    ScalingRow row{.kind = "weak",
                   .res = res,
                   .speedup = weak_base > 0.0 ? res.gflops / weak_base : 1.0,
                   .efficiency = weak_base > 0.0 ? res.gflops / weak_base / n : 1.0,
                   .diff = verify_exact(dims, opt.seed, mreq.grid, req)};
    ok &= row.diff == 0.0;
    print_row(row);
    emit(json, csv, row);
  }

  if (csv != nullptr) std::fclose(csv);
  std::printf("\nscaling verdict: %s\n",
              ok ? "all grids bit-for-bit exact, 1-device row reproduces bench_fig6"
                 : "EXACTNESS FAILURE");
  return ok ? 0 : 1;
}
