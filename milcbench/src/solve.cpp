// solve.cpp — the sharded-solve workload: fault-free, checkpointed CG solves
// on a 4-rank grid spanning 2 node groups x 2 devices.  Its host time is
// functional kernels, halo pack/unpack and CG/ABFT/checkpoint arithmetic
// with almost no gpusim work — the reverse of fig6-sweep.  One profiled
// MultiDeviceRunner::run of the same grid prices an apply on the simulated
// clock.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/problem.hpp"
#include "multidev/sharded_cg.hpp"
#include "workloads.hpp"

namespace milcbench {
namespace {

using milc::multidev::MultiDevResult;
using milc::multidev::ShardedCgResult;

constexpr int kL = 12;
constexpr double kMass = 1.0;
constexpr double kRelTol = 1e-8;
constexpr int kSetups = 3;
constexpr int kApplies = 3;  ///< standalone applies per traced pass (multidev.apply_s)

void digest_multidev(Digest& d, const MultiDevResult& r) {
  d.str(r.label);
  d.i64(r.devices);
  for (double v : {r.per_iter_us, r.gflops, r.overlap_efficiency, r.comm_fraction,
                   r.surface_fraction, r.intra_wire_us, r.inter_wire_us, r.recovery_us}) {
    d.f64(v);
  }
  for (std::int64_t v : {r.halo_bytes, r.intra_node_bytes, r.inter_node_bytes,
                         static_cast<std::int64_t>(r.fabric_messages),
                         static_cast<std::int64_t>(r.nodes)}) {
    d.i64(v);
  }
  for (const auto& t : r.per_device) {
    d.i64(t.rank);
    d.i64(t.interior_sites);
    d.i64(t.boundary_sites);
    d.i64(t.halo_bytes_in);
    for (double v : {t.pack_us, t.interior_us, t.arrival_us, t.unpack_us, t.boundary_us,
                     t.exposed_us, t.iter_us}) {
      d.f64(v);
    }
  }
}

void digest_cg(Digest& d, const ShardedCgResult& r) {
  d.i64(r.cg.converged ? 1 : 0);
  d.i64(r.cg.iterations);
  d.f64(r.cg.relative_residual);
  d.f64(r.cg.true_relative_residual);
  for (int v : {r.applies, r.checkpoints_taken, r.restarts, r.recomputes, r.reliable_updates,
                r.failovers_observed, r.checkpoint_applies, r.hidden_applies,
                r.snapshots_staged, r.snapshots_promoted}) {
    d.i64(v);
  }
  d.f64(r.recovery_us);
  d.str(r.final_grid.label());
}

}  // namespace

Outcome run_sharded_solve(const Options& opt, Tracer& tr) {
  using namespace milc;
  using namespace milc::multidev;
  Outcome out;
  const std::uint64_t gauge_seed = derive_seed(opt.seed, 1);
  const Coords dims{kL, kL, kL, kL};
  PartitionGrid grid;
  grid.devices = {1, 1, 2, 2};
  const gpusim::NodeTopology topo = gpusim::cluster(2, 2);

  ShardedCgConfig cfg;
  cfg.cg.rel_tol = kRelTol;
  cfg.cg.max_iterations = 1000;
  cfg.topo = topo;
  cfg.checkpoint_interval = 10;
  cfg.async_checkpoint = true;

  MultiDevRequest mreq;
  mreq.grid = grid;
  mreq.req.strategy = cfg.strategy;
  mreq.req.order = cfg.order;
  mreq.req.local_size = cfg.local_size;
  mreq.req.iterations = 1;
  mreq.topo = topo;

  MultiDevResult priced;
  std::unique_ptr<ShardedCgSolver> solver;
  run_setups(kSetups, tr, out, [&] {
    auto problem = in_span(tr, "lattice.build", "L" + std::to_string(kL),
                           [&] { return std::make_unique<DslashProblem>(dims, gauge_seed); });
    priced = in_span(tr, "multidev.price", grid.label(),
                     [&] { return MultiDeviceRunner().run(*problem, mreq); });
    solver.reset();
    solver = in_span(tr, "cg.ctor", grid.label(), [&] {
      return std::make_unique<ShardedCgSolver>(dims, gauge_seed, kMass, grid, cfg);
    });
  });

  ColorField source(solver->geom(), Parity::Even), solution(solver->geom(), Parity::Even);
  source.fill_random(derive_seed(opt.seed, 2));
  ShardedCgResult result;
  std::vector<std::uint64_t> digests;
  double true_residual = 0.0;

  run_passes(opt, tr, out, [&](int pass) {
    const std::string id = "solve#" + std::to_string(pass);
    solution.zero();
    const Clock::time_point t0 = Clock::now();
    in_span(tr, "pass", {}, [&] {
      result = in_span(tr, "cg.solve", id, [&] { return solver->solve(source, solution); });
    });
    const double host_s = seconds_since(t0);
    // Traced passes time standalone applies, outside the timed region: the
    // per-apply host cost that cg.self_s subtracts from the solve time.
    ColorField y(solver->geom(), Parity::Even);
    for (int a = 0; tr.enabled() && a < kApplies; ++a) {
      in_span(tr, "probe", "apply#" + std::to_string(a), [&] {
        in_span(tr, "multidev.apply", {}, [&] { solver->apply_normal(source, y); });
      });
    }

    // Output check: converged, and the true residual through the serial
    // reference operator (exact fp64 wire) is within tolerance.
    in_span(tr, "check", {}, [&] {
      ++out.attempted;
      ColorField ax(solver->geom(), Parity::Even);
      in_span(tr, "cg.apply_reference", id, [&] { solver->apply_reference(solution, ax); });
      ColorField r = source;
      axpy(-1.0, ax, r);
      true_residual = std::sqrt(norm2(r) / norm2(source));
      if (!result.cg.converged || !result.recovered_all || result.cancelled) {
        out.fail(id + ": " + result.summary());
      } else if (!(true_residual <= kRelTol)) {
        out.fail(id + ": true residual " + std::to_string(true_residual) + " above tolerance");
      }
    });

    Digest d;
    digest_multidev(d, priced);
    digest_cg(d, result);
    d.bytes(solution.data(), solution.bytes());
    digests.push_back(d.value());
    return host_s;
  });

  out.check_digests(digests);

  // --- simulated clock ---------------------------------------------------
  // solve_sim_us = (applies - hidden_applies) x the two priced Dslash per
  // apply + recovery_us.  The CG reductions (dot products, axpys) are not
  // priced on the simulated clock yet, so this is a lower bound.
  const ShardedCgResult& r = result;
  MetricTable& m = out.metrics;
  m.sim("sim_gflops_3lp1", priced.gflops, "GF/s");
  m.sim("sim_gflops_peak", priced.gflops, "GF/s");
  m.sim("goodput_frac",
        static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
        "fraction");
  m.sim("solve_sim_us",
        (r.applies - r.hidden_applies) * 2.0 * priced.per_iter_us + r.recovery_us, "us");

  double pack = 0, unpack = 0, exposed = 0;
  for (const auto& t : priced.per_device) {
    pack = std::max(pack, t.pack_us);
    unpack = std::max(unpack, t.unpack_us);
    exposed = std::max(exposed, t.exposed_us);
  }
  m.sim("multidev.per_iter_us", priced.per_iter_us, "us");
  m.sim("multidev.pack_us", pack, "us");
  m.sim("multidev.unpack_us", unpack, "us");
  m.sim("multidev.exposed_us", exposed, "us");
  m.sim("multidev.overlap_efficiency", priced.overlap_efficiency, "fraction");
  m.sim("multidev.comm_fraction", priced.comm_fraction, "fraction");
  m.sim("multidev.surface_fraction", priced.surface_fraction, "fraction");
  m.sim("multidev.halo_bytes", static_cast<double>(priced.halo_bytes), "B");
  m.sim("multidev.intra_node_bytes", static_cast<double>(priced.intra_node_bytes), "B");
  m.sim("multidev.inter_node_bytes", static_cast<double>(priced.inter_node_bytes), "B");
  m.sim("multidev.fabric_messages", priced.fabric_messages, "count");
  m.sim("multidev.inter_wire_us", priced.inter_wire_us, "us");

  m.sim("cg.iterations", r.cg.iterations, "count");
  m.sim("cg.applies", r.applies, "count");
  m.sim("cg.checkpoint_applies", r.checkpoint_applies, "count");
  m.sim("cg.hidden_applies", r.hidden_applies, "count");
  m.sim("cg.recomputes", r.recomputes, "count");
  m.sim("cg.restarts", r.restarts, "count");
  m.sim("cg.true_residual", true_residual, "ratio");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "sharded-solve: %dx%dx%dx%d on %s (2 nodes x 2 devices), mass %.2f, tol %.0e, "
                "async checkpoint every %d iterations",
                kL, kL, kL, kL, grid.label().c_str(), kMass, kRelTol, cfg.checkpoint_interval);
  out.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "solve_sim_us prices %d - %d hidden applies x 2 Dslash x %.2f us; CG "
                "reductions are unpriced on the simulated clock",
                r.applies, r.hidden_applies, priced.per_iter_us);
  out.notes.emplace_back(buf);
  return out;
}

}  // namespace milcbench
