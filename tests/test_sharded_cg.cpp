// test_sharded_cg.cpp — checkpointed CG over the sharded multi-device
// Dslash: fault-free bit-identity with cg_solve, link-storm transparency,
// device-loss failover with checkpoint restart, healing back newest-first
// across applies, and seed replay.
//
// The strongest assertions lean on two exactness properties proved
// elsewhere in the suite: the sharded functional Dslash equals the
// single-device one bit for bit on any grid, and link-level recovery
// restores the exact wire bytes.  Together they make entire *solver
// trajectories* bit-reproducible — under a link storm, and even across a
// mid-solve failover onto a smaller grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "core/solver.hpp"
#include "multidev/sharded_cg.hpp"

namespace milc::multidev {
namespace {

using faultsim::FaultKind;
using faultsim::FaultPlan;
using faultsim::ScheduledFault;
using faultsim::ScopedFaultInjection;

// Smallest multidev-able asymmetric lattice: split dim 3 (extent 12 ->
// local 6 = 2 * kHaloDepth), unsplit extents stay small and even.
const Coords kDims{4, 4, 4, 12};
constexpr std::uint64_t kGaugeSeed = 31;
constexpr double kMass = 0.5;

ShardedCgConfig quick_config() {
  ShardedCgConfig cfg;
  cfg.cg.rel_tol = 1e-8;
  cfg.cg.max_iterations = 400;
  cfg.checkpoint_interval = 8;
  // Tight audit: restore as soon as the true residual drifts 100x from the
  // recursion, bounding what an un-audited corruption can leave behind.
  cfg.residual_audit_factor = 100.0;
  return cfg;
}

/// Source and zeroed guess for the solves.
ColorField make_source(const LatticeGeom& geom) {
  ColorField b(geom, Parity::Even);
  b.fill_random(77);
  return b;
}

TEST(ShardedCg, ApplyMatchesReferenceOperator) {
  ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                         quick_config());
  ColorField in(solver.geom(), Parity::Even);
  in.fill_random(5);
  ColorField via_kernels(solver.geom(), Parity::Even);
  ColorField via_reference(solver.geom(), Parity::Even);
  solver.apply_normal(in, via_kernels);
  solver.apply_reference(in, via_reference);
  EXPECT_LT(max_abs_diff(via_kernels, via_reference), 1e-9);

  // And Hermiticity of the sharded apply — the property the ABFT check uses.
  ColorField y(solver.geom(), Parity::Even);
  y.fill_random(6);
  ColorField Ay(solver.geom(), Parity::Even);
  solver.apply_normal(y, Ay);
  const dcomplex yAx = dot(y, via_kernels), xAy = dot(in, Ay);
  EXPECT_NEAR(yAx.re, xAy.re, 1e-7);
  EXPECT_NEAR(yAx.im, -xAy.im, 1e-7);
}

TEST(ShardedCg, FaultFreeSolveIsBitForBitCgSolve) {
  // The whole recovery apparatus (ABFT dots, checkpoint audits, snapshots)
  // must be trajectory-neutral: with no faults, solve() is *exactly*
  // cg_solve over the same sharded apply — iterations, residuals, and every
  // bit of the solution.
  ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                         quick_config());
  const ColorField b = make_source(solver.geom());

  ColorField x_ref(solver.geom(), Parity::Even);
  const CgResult ref = cg_solve(
      [&solver](const ColorField& in, ColorField& out) { solver.apply_normal(in, out); }, b,
      x_ref, solver.geom(), quick_config().cg);

  ShardedCgSolver solver2(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                          quick_config());
  ColorField x(solver2.geom(), Parity::Even);
  const ShardedCgResult res = solver2.solve(b, x);

  ASSERT_TRUE(ref.converged);
  ASSERT_TRUE(res.cg.converged) << res.summary();
  EXPECT_EQ(res.cg.iterations, ref.iterations);
  EXPECT_EQ(res.cg.relative_residual, ref.relative_residual);
  EXPECT_EQ(res.cg.true_relative_residual, ref.true_relative_residual);
  EXPECT_EQ(max_abs_diff(x, x_ref), 0.0);
  EXPECT_TRUE(res.recovered_all);
  EXPECT_EQ(res.restarts, 0);
  EXPECT_EQ(res.recomputes, 0);
  EXPECT_EQ(res.failovers_observed, 0);
  EXPECT_GT(res.checkpoints_taken, 0);
  EXPECT_TRUE(res.faults.empty());
}

TEST(ShardedCg, SolutionSolvesTheReferenceSystem) {
  ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                         quick_config());
  const ColorField b = make_source(solver.geom());
  ColorField x(solver.geom(), Parity::Even);
  const ShardedCgResult res = solver.solve(b, x);
  ASSERT_TRUE(res.cg.converged);

  ColorField Ax(solver.geom(), Parity::Even);
  solver.apply_reference(x, Ax);
  ColorField r = b;
  axpy(-1.0, Ax, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 10 * quick_config().cg.rel_tol);
}

TEST(ShardedCg, LinkStormSolveIsBitForBitTheCleanSolve) {
  // Link faults are healed below the solver (checksummed retransmission
  // restores the exact bytes), so a storm-lashed solve must follow the
  // clean trajectory exactly — same iterate sequence, same solution bits.
  ShardedCgSolver clean(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                        quick_config());
  const ColorField b = make_source(clean.geom());
  ColorField x_clean(clean.geom(), Parity::Even);
  const ShardedCgResult clean_res = clean.solve(b, x_clean);
  ASSERT_TRUE(clean_res.cg.converged);

  ShardedCgSolver stormy(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                         quick_config());
  ColorField x_storm(stormy.geom(), Parity::Even);
  FaultPlan plan;
  plan.seed = 2024;
  plan.p_msg_drop = 0.02;
  plan.p_msg_corrupt = 0.02;
  plan.p_msg_delay = 0.05;
  ScopedFaultInjection fi(plan);
  const ShardedCgResult res = stormy.solve(b, x_storm);

  ASSERT_TRUE(res.cg.converged) << res.summary();
  EXPECT_TRUE(res.recovered_all);
  EXPECT_EQ(res.cg.iterations, clean_res.cg.iterations);
  EXPECT_EQ(max_abs_diff(x_storm, x_clean), 0.0)
      << "link-level recovery must be invisible to the solver";
  EXPECT_FALSE(res.faults.empty()) << "the storm must actually fire";
  EXPECT_GT(res.recovery_us, 0.0);
  EXPECT_EQ(res.restarts, 0) << "link faults heal below the checkpoint tier";
}

TEST(ShardedCg, DeviceLossTriggersFailoverAndCheckpointRestart) {
  ShardedCgSolver clean(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                        quick_config());
  const ColorField b = make_source(clean.geom());
  ColorField x_clean(clean.geom(), Parity::Even);
  const ShardedCgResult clean_res = clean.solve(b, x_clean);
  ASSERT_TRUE(clean_res.cg.converged);

  // Lose a device mid-solve: each apply consults 2 devices per Dslash run
  // (2 runs per apply), so occurrence ~40 lands around iteration 10.
  ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                         quick_config());
  ColorField x(solver.geom(), Parity::Even);
  FaultPlan plan;
  plan.seed = 5;
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 40, 1, "device r"});
  ScopedFaultInjection fi(plan);
  const ShardedCgResult res = solver.solve(b, x);

  ASSERT_TRUE(res.cg.converged) << res.summary();
  EXPECT_TRUE(res.recovered_all);
  EXPECT_GE(res.failovers_observed, 1);
  EXPECT_GE(res.restarts, 1) << "failover must restore the last checkpoint";
  EXPECT_EQ(res.final_grid.total(), 1);
  EXPECT_EQ(solver.grid().total(), 1) << "the solver adopts the surviving grid";
  ASSERT_EQ(res.faults.size(), 1u);
  EXPECT_EQ(res.faults[0].kind, FaultKind::device_loss);

  // Grid-independent exactness makes the replayed trajectory identical to
  // the clean one: the solution is bit-for-bit the clean solution.
  EXPECT_EQ(max_abs_diff(x, x_clean), 0.0);
  bool restored = false;
  for (const SolverEvent& ev : res.events) {
    if (ev.kind == "restore") restored = true;
  }
  EXPECT_TRUE(restored);
}

TEST(ShardedCg, MultiNodeSolveIsBitForBitTheIslandSolve) {
  // Moving the two shards onto separate nodes reroutes every halo over the
  // fabric tier — a pricing change only.  The whole solver trajectory must
  // be bit-identical to the single-island solve.
  ShardedCgSolver island(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                         quick_config());
  const ColorField b = make_source(island.geom());
  ColorField x_island(island.geom(), Parity::Even);
  const ShardedCgResult island_res = island.solve(b, x_island);
  ASSERT_TRUE(island_res.cg.converged);

  ShardedCgConfig cfg = quick_config();
  cfg.topo = gpusim::cluster(2, 1);
  ShardedCgSolver fabric(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2), cfg);
  ColorField x_fabric(fabric.geom(), Parity::Even);
  const ShardedCgResult fabric_res = fabric.solve(b, x_fabric);

  ASSERT_TRUE(fabric_res.cg.converged) << fabric_res.summary();
  EXPECT_EQ(fabric_res.cg.iterations, island_res.cg.iterations);
  EXPECT_EQ(fabric_res.cg.relative_residual, island_res.cg.relative_residual);
  EXPECT_EQ(max_abs_diff(x_fabric, x_island), 0.0)
      << "placement must never change the solve";
  EXPECT_TRUE(fabric_res.faults.empty());
  EXPECT_EQ(fabric_res.restarts, 0);
}

TEST(ShardedCg, NodeLossMidSolveRestoresAndConvergesBitForBit) {
  // One shard per node: losing node n1 takes its device with it.  The
  // hardened runner fails over to the lone survivor, the solver restores its
  // last checkpoint, and grid-independent exactness makes the replayed
  // trajectory — and the solution — bit-identical to the clean solve.
  ShardedCgConfig cfg = quick_config();
  cfg.topo = gpusim::cluster(2, 1);
  ShardedCgSolver clean(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2), cfg);
  const ColorField b = make_source(clean.geom());
  ColorField x_clean(clean.geom(), Parity::Even);
  const ShardedCgResult clean_res = clean.solve(b, x_clean);
  ASSERT_TRUE(clean_res.cg.converged);

  ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2), cfg);
  ColorField x(solver.geom(), Parity::Even);
  FaultPlan plan;
  plan.seed = 5;
  plan.schedule.push_back(ScheduledFault{FaultKind::node_loss, 30, 1, "node n1"});
  ScopedFaultInjection fi(plan);
  const ShardedCgResult res = solver.solve(b, x);

  ASSERT_TRUE(res.cg.converged) << res.summary();
  EXPECT_TRUE(res.recovered_all);
  EXPECT_GE(res.failovers_observed, 1);
  EXPECT_GE(res.restarts, 1) << "node loss must restore the last checkpoint";
  EXPECT_EQ(res.final_grid.total(), 1);
  ASSERT_EQ(res.faults.size(), 1u);
  EXPECT_EQ(res.faults[0].kind, FaultKind::node_loss);
  EXPECT_EQ(max_abs_diff(x, x_clean), 0.0);
}

TEST(ShardedCg, TwoShrinksInSeparateAppliesHealBackNewestFirst) {
  // 1x1x2x2 loses r3 and shrinks to 1x1x1x2; a later apply loses r1 there
  // and shrinks to 1x1x1x1.  The heals then come back in reverse order, r1
  // first and r3 second, so the solve climbs 1x1x1x1 -> 1x1x1x2 -> 1x1x2x2
  // across applies.  Each climb needs the grid the newest shrink abandoned,
  // not only the one the first shrink abandoned.
  const Coords dims{4, 4, 12, 12};
  PartitionGrid full;
  full.devices = {1, 1, 2, 2};
  ShardedCgSolver clean(dims, kGaugeSeed, kMass, full, quick_config());
  const ColorField b = make_source(clean.geom());
  ColorField x_clean(clean.geom(), Parity::Even);
  ASSERT_TRUE(clean.solve(b, x_clean).cg.converged);

  ShardedCgSolver solver(dims, kGaugeSeed, kMass, full, quick_config());
  ColorField x(solver.geom(), Parity::Even);
  FaultPlan plan;
  plan.seed = 5;
  plan.schedule.push_back(
      ScheduledFault{FaultKind::device_loss, 4, 1, "device r3 @ 1x1x2x2"});
  plan.schedule.push_back(
      ScheduledFault{FaultKind::device_loss, 4, 1, "device r1 @ 1x1x1x2"});
  plan.schedule.push_back(ScheduledFault{FaultKind::heal, 1, 1, "heal/device r1 @ 1x1x1x1"});
  plan.schedule.push_back(ScheduledFault{FaultKind::heal, 5, 1, "heal/device r3 @ 1x1x1x2"});
  ScopedFaultInjection fi(plan);
  const ShardedCgResult res = solver.solve(b, x);

  ASSERT_TRUE(res.cg.converged) << res.summary();
  EXPECT_TRUE(res.recovered_all);
  EXPECT_EQ(res.rejoins, 2);
  EXPECT_EQ(res.final_grid.label(), "1x1x2x2");
  EXPECT_EQ(max_abs_diff(x, x_clean), 0.0);
}

TEST(ShardedCg, BitFlipCorruptionIsCaughtAndTheSolveStillConverges) {
  // ECC-style flips land in the live solver vectors during kernel
  // completions.  The ABFT identity catches inconsistent applies
  // (recompute); drifted state is caught by the checkpoint audit (restore).
  // Either way the solve must converge to the true solution — checked
  // against the serial reference, not against the recursion.  The burst is
  // scheduled (finite) rather than probabilistic: a flip rate that persists
  // forever re-corrupts state after every restore and no restart budget can
  // outrun it.
  ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                         quick_config());
  const ColorField b = make_source(solver.geom());
  ColorField x(solver.geom(), Parity::Even);
  FaultPlan plan;
  plan.seed = 12;
  plan.schedule.push_back(ScheduledFault{FaultKind::bit_flip, 120, 6, ""});
  ScopedFaultInjection fi(plan);
  const ShardedCgResult res = solver.solve(b, x);

  ASSERT_TRUE(res.cg.converged) << res.summary();
  EXPECT_TRUE(res.recovered_all);
  EXPECT_FALSE(res.faults.empty()) << "the flip storm must actually fire";
  EXPECT_GT(res.recomputes + res.restarts, 0)
      << "at least one flip must have been caught by a recovery tier";

  // An escaped low-amplitude flip is bounded by the audit factor, so the
  // reference residual can sit up to ~audit_factor above the recursion's.
  ColorField Ax(solver.geom(), Parity::Even);
  solver.apply_reference(x, Ax);
  ColorField r = b;
  axpy(-1.0, Ax, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 1e3 * quick_config().cg.rel_tol);
}

TEST(ShardedCg, StormSolveReplaysBitForBitFromItsSeed) {
  auto run_once = [] {
    ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                           quick_config());
    const ColorField b = make_source(solver.geom());
    ColorField x(solver.geom(), Parity::Even);
    FaultPlan plan;
    plan.seed = 777;
    plan.p_msg_drop = 0.02;
    plan.p_msg_corrupt = 0.02;
    plan.p_bit_flip = 0.002;
    ScopedFaultInjection fi(plan);
    ShardedCgResult res = solver.solve(b, x);
    return std::make_pair(std::move(res), x);
  };
  const auto [r1, x1] = run_once();
  const auto [r2, x2] = run_once();

  EXPECT_EQ(max_abs_diff(x1, x2), 0.0);
  EXPECT_EQ(r1.cg.iterations, r2.cg.iterations);
  EXPECT_EQ(r1.cg.relative_residual, r2.cg.relative_residual);
  EXPECT_EQ(r1.applies, r2.applies);
  EXPECT_EQ(r1.recomputes, r2.recomputes);
  EXPECT_EQ(r1.restarts, r2.restarts);
  ASSERT_EQ(r1.faults.size(), r2.faults.size());
  for (std::size_t i = 0; i < r1.faults.size(); ++i) {
    EXPECT_EQ(r1.faults[i].kind, r2.faults[i].kind);
    EXPECT_EQ(r1.faults[i].site, r2.faults[i].site);
    EXPECT_EQ(r1.faults[i].occurrence, r2.faults[i].occurrence);
  }
}

TEST(ShardedCg, SharedConfigurationSolveIsBitForBitTheSeedSolve) {
  // A solver over a configuration generated once (what the serving tier
  // builds per dispatch) is the seed-built solver: under one link storm both
  // follow one trajectory, and the halo checksums catch the same corruptions.
  const GaugeConfiguration gauge = GaugeConfiguration::random(LatticeGeom(kDims), kGaugeSeed);
  const PartitionGrid grid = PartitionGrid::along(3, 2);
  FaultPlan plan;
  plan.seed = 2024;
  plan.p_msg_drop = 0.02;
  plan.p_msg_corrupt = 0.05;
  plan.p_msg_delay = 0.05;
  const auto storm_solve = [&](ShardedCgSolver solver) {
    const ColorField b = make_source(solver.geom());
    ColorField x(solver.geom(), Parity::Even);
    ScopedFaultInjection fi(plan);
    ShardedCgResult res = solver.solve(b, x);
    return std::make_pair(std::move(res), x);
  };
  const auto [r_seed, x_seed] =
      storm_solve(ShardedCgSolver(kDims, kGaugeSeed, kMass, grid, quick_config()));
  const auto [r_shared, x_shared] =
      storm_solve(ShardedCgSolver(kDims, gauge, kMass, grid, quick_config()));
  ASSERT_TRUE(r_seed.cg.converged) << r_seed.summary();
  EXPECT_EQ(std::memcmp(x_shared.data(), x_seed.data(), x_seed.bytes()), 0);
  EXPECT_EQ(r_shared.cg.iterations, r_seed.cg.iterations);
  EXPECT_EQ(r_shared.applies, r_seed.applies);
  EXPECT_EQ(r_shared.recovery_us, r_seed.recovery_us);
  const auto corruptions = [](const ShardedCgResult& r) {
    return std::count_if(r.faults.begin(), r.faults.end(), [](const faultsim::FaultEvent& e) {
      return e.kind == FaultKind::msg_corrupt;
    });
  };
  EXPECT_GT(corruptions(r_seed), 0) << "the storm must corrupt payloads";
  EXPECT_EQ(corruptions(r_shared), corruptions(r_seed));

  // The same storm on one hardened apply of each parity's problem, where the
  // exchange report counts the checksum's verdicts.
  for (const Parity target : {Parity::Odd, Parity::Even}) {
    DslashProblem seeded(kDims, kGaugeSeed, target);
    DslashProblem shared(kDims, gauge, kGaugeSeed, target);
    const MultiDeviceRunner runner;
    MultiDevRequest mreq;
    mreq.grid = grid;
    mreq.mode = minisycl::ExecMode::functional;
    FaultPlan heavy = plan;
    heavy.p_msg_corrupt = 0.5;
    const auto storm_run = [&](DslashProblem& problem) {
      ScopedFaultInjection fi(heavy);
      return runner.run(problem, mreq);
    };
    const MultiDevResult a = storm_run(seeded);
    const MultiDevResult c = storm_run(shared);
    EXPECT_GT(a.exchange.checksum_failures, 0);
    EXPECT_EQ(c.exchange.checksum_failures, a.exchange.checksum_failures);
    EXPECT_EQ(std::memcmp(shared.c().data(), seeded.c().data(), seeded.c().bytes()), 0);
  }
}

TEST(ShardedCg, RestartExhaustionReportsStructuredFailure) {
  // A fault the recovery ladder cannot outrun — every kernel launch sticks
  // forever, so retries, strategy fallbacks and failovers all fail on every
  // grid — must exhaust the restart budget and surface a *structured*
  // failure: recovered_all=false, converged=false, and the summary names
  // the exhaustion.  Never a crash, never a silent wrong answer.
  ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                         quick_config());
  const ColorField b = make_source(solver.geom());
  ColorField x(solver.geom(), Parity::Even);
  FaultPlan plan;
  plan.seed = 5;
  plan.schedule.push_back(
      ScheduledFault{FaultKind::sticky_fault, 0, 100'000'000, "dslash-"});
  ScopedFaultInjection fi(plan);
  const ShardedCgResult res = solver.solve(b, x);

  EXPECT_FALSE(res.recovered_all);
  EXPECT_FALSE(res.cg.converged);
  EXPECT_FALSE(res.cancelled) << "exhaustion is a failure, not a cancellation";
  EXPECT_LE(res.restarts, kMaxRestarts);
  EXPECT_FALSE(res.faults.empty());
  EXPECT_NE(res.summary().find("RECOVERY EXHAUSTED"), std::string::npos)
      << res.summary();
}

TEST(ShardedCg, AsyncCheckpointFaultFreeSolveIsBitForBitTheSyncSolve) {
  // Async checkpointing moves the audit apply off the critical path; it must
  // not move the *trajectory*.  Fault-free, the async solve produces the
  // same iterates and the same solution bits as the synchronous solve, with
  // the audit applies accounted as hidden (overlapped) work.
  ShardedCgSolver sync_solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                              quick_config());
  const ColorField b = make_source(sync_solver.geom());
  ColorField x_sync(sync_solver.geom(), Parity::Even);
  const ShardedCgResult sync_res = sync_solver.solve(b, x_sync);
  ASSERT_TRUE(sync_res.cg.converged);

  ShardedCgConfig acfg = quick_config();
  acfg.async_checkpoint = true;
  ShardedCgSolver async_solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                               acfg);
  ColorField x_async(async_solver.geom(), Parity::Even);
  const ShardedCgResult async_res = async_solver.solve(b, x_async);

  ASSERT_TRUE(async_res.cg.converged) << async_res.summary();
  EXPECT_EQ(async_res.cg.iterations, sync_res.cg.iterations);
  EXPECT_EQ(max_abs_diff(x_async, x_sync), 0.0);

  // The overhead split: same audit cadence, but the async audits are hidden.
  EXPECT_GT(async_res.hidden_applies, 0);
  EXPECT_EQ(async_res.hidden_applies, async_res.checkpoint_applies);
  EXPECT_GT(async_res.snapshots_promoted, 0);
  EXPECT_LE(async_res.snapshots_staged - async_res.snapshots_promoted, 1)
      << "fault-free, every audited staging promotes; at most the final one "
         "can still be pending when the solve converges";
  EXPECT_EQ(sync_res.hidden_applies, 0) << "sync audits stay on the critical path";
  EXPECT_LT(async_res.applies - async_res.hidden_applies, sync_res.applies)
      << "the critical path must shorten at equal cadence";
}

TEST(ShardedCg, AsyncCheckpointDeviceLossRestoresBitForBit) {
  // The promotion rule under test: only an *audited* staged state becomes
  // the durable snapshot, so a mid-window failover restores a consistent
  // state (possibly one cadence further back) and the replayed trajectory is
  // still bit-identical to the clean solve.
  ShardedCgConfig acfg = quick_config();
  acfg.async_checkpoint = true;
  ShardedCgSolver clean(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2), acfg);
  const ColorField b = make_source(clean.geom());
  ColorField x_clean(clean.geom(), Parity::Even);
  const ShardedCgResult clean_res = clean.solve(b, x_clean);
  ASSERT_TRUE(clean_res.cg.converged);

  ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2), acfg);
  ColorField x(solver.geom(), Parity::Even);
  FaultPlan plan;
  plan.seed = 5;
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 40, 1, "device r"});
  ScopedFaultInjection fi(plan);
  const ShardedCgResult res = solver.solve(b, x);

  ASSERT_TRUE(res.cg.converged) << res.summary();
  EXPECT_TRUE(res.recovered_all);
  EXPECT_GE(res.failovers_observed, 1);
  EXPECT_GE(res.restarts, 1);
  EXPECT_GE(res.snapshots_promoted, 1)
      << "the restore must have had an audited snapshot to land on";
  EXPECT_EQ(res.final_grid.total(), 1);
  EXPECT_EQ(max_abs_diff(x, x_clean), 0.0);
}

TEST(ShardedCg, AsyncCheckpointBitFlipBurstStillConverges) {
  // The flip burst of BitFlipCorruptionIsCaughtAndTheSolveStillConverges,
  // with async checkpoints.  A flip below the audit threshold gets promoted
  // inside a snapshot, so every replay from that snapshot fails the next
  // audit again.  The async audit must escalate like the sync one: the
  // second drift against one snapshot rebuilds the recursion from its
  // iterate instead of restoring it until the restart budget runs out.
  ShardedCgConfig acfg = quick_config();
  acfg.async_checkpoint = true;
  ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2), acfg);
  const ColorField b = make_source(solver.geom());
  ColorField x(solver.geom(), Parity::Even);
  FaultPlan plan;
  plan.seed = 12;
  plan.schedule.push_back(ScheduledFault{FaultKind::bit_flip, 120, 6, ""});
  ScopedFaultInjection fi(plan);
  const ShardedCgResult res = solver.solve(b, x);

  ASSERT_TRUE(res.cg.converged) << res.summary();
  EXPECT_TRUE(res.recovered_all);
  bool rebuilt = false;
  for (const SolverEvent& ev : res.events) {
    if (ev.kind == "rebuild") rebuilt = true;
  }
  EXPECT_TRUE(rebuilt) << "a second drift against one snapshot must rebuild";

  ColorField Ax(solver.geom(), Parity::Even);
  solver.apply_reference(x, Ax);
  ColorField r = b;
  axpy(-1.0, Ax, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 1e3 * quick_config().cg.rel_tol);
}

TEST(ShardedCg, FailoverAndRecomputeEventsCarryTheirIteration) {
  // A failover is stamped with the iteration whose apply lost the device,
  // so it reads before (at or after the snapshot of) the restore it causes.
  {
    ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                           quick_config());
    const ColorField b = make_source(solver.geom());
    ColorField x(solver.geom(), Parity::Even);
    FaultPlan plan;
    plan.seed = 5;
    plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 40, 1, "device r"});
    ScopedFaultInjection fi(plan);
    const ShardedCgResult res = solver.solve(b, x);

    auto of_kind = [](const char* kind) {
      return [kind](const SolverEvent& ev) { return ev.kind == kind; };
    };
    const auto failover = std::find_if(res.events.begin(), res.events.end(), of_kind("failover"));
    ASSERT_NE(failover, res.events.end()) << res.summary();
    EXPECT_GT(failover->iteration, 0);
    const auto restore = std::find_if(failover, res.events.end(), of_kind("restore"));
    ASSERT_NE(restore, res.events.end()) << "the failover must be followed by a restore";
    EXPECT_GE(failover->iteration, restore->iteration);
  }
  {
    ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                           quick_config());
    const ColorField b = make_source(solver.geom());
    ColorField x(solver.geom(), Parity::Even);
    FaultPlan plan;
    plan.seed = 12;
    plan.schedule.push_back(ScheduledFault{FaultKind::bit_flip, 120, 6, ""});
    ScopedFaultInjection fi(plan);
    const ShardedCgResult res = solver.solve(b, x);

    bool recomputed = false;
    for (const SolverEvent& ev : res.events) {
      if (ev.kind != "recompute") continue;
      recomputed = true;
      EXPECT_GT(ev.iteration, 0) << ev.detail;
    }
    EXPECT_TRUE(recomputed) << "the flip burst must trip the ABFT check";
  }
}

TEST(ShardedCg, CopyOfASolvedSolverOutlivesTheOriginal) {
  // A solve leaves the solver's layout caches warm.  They hold values only,
  // so a copy stays valid once the original is gone and solves exactly like
  // a fresh solver: same iterations, residuals and solution bytes.
  auto original = std::make_unique<ShardedCgSolver>(
      kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2), quick_config());
  const ColorField b = make_source(original->geom());
  ColorField x0(original->geom(), Parity::Even);
  ASSERT_TRUE(original->solve(b, x0).cg.converged);
  ShardedCgSolver copy = *original;
  original.reset();

  ColorField x(copy.geom(), Parity::Even);
  const ShardedCgResult res = copy.solve(b, x);

  ShardedCgSolver fresh(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2), quick_config());
  ColorField x_fresh(fresh.geom(), Parity::Even);
  const ShardedCgResult fresh_res = fresh.solve(b, x_fresh);

  ASSERT_TRUE(res.cg.converged) << res.summary();
  EXPECT_EQ(res.cg.iterations, fresh_res.cg.iterations);
  EXPECT_EQ(res.cg.relative_residual, fresh_res.cg.relative_residual);
  EXPECT_EQ(res.cg.true_relative_residual, fresh_res.cg.true_relative_residual);
  ASSERT_EQ(x.bytes(), x_fresh.bytes());
  EXPECT_EQ(std::memcmp(x.data(), x_fresh.data(), x.bytes()), 0);
}

TEST(ShardedCg, ZeroSourceShortCircuits) {
  ShardedCgSolver solver(kDims, kGaugeSeed, kMass, PartitionGrid::along(3, 2),
                         quick_config());
  ColorField b(solver.geom(), Parity::Even);  // all zeros
  ColorField x(solver.geom(), Parity::Even);
  x.fill_random(9);
  const ShardedCgResult res = solver.solve(b, x);
  EXPECT_TRUE(res.cg.converged);
  EXPECT_EQ(res.cg.iterations, 0);
  EXPECT_EQ(norm2(x), 0.0);
}

}  // namespace
}  // namespace milc::multidev
