// test_multidev_chaos.cpp — the hardened multi-device path under seeded
// fault storms: checksummed halo retransmission, per-shard kernel recovery,
// device-loss failover, and the fault-free dispatcher identity.
//
// The central contract: *link* faults never change the output at all.  A
// dropped or corrupted message is retransmitted from the sender's pristine
// pack buffer, so the bytes that finally unpack are the bytes that would
// have arrived in a clean run — the gathered field must equal the fault-free
// field bit for bit, not just within tolerance.  Kernel-level faults that
// exhaust the retry budget fall back down the strategy ladder, which changes
// the summation order on the affected shard only: every other shard must
// still be bit-identical.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dslash_ref.hpp"
#include "multidev/runner.hpp"

namespace milc::multidev {
namespace {

using faultsim::FaultKind;
using faultsim::FaultPlan;
using faultsim::ScheduledFault;
using faultsim::ScopedFaultInjection;

constexpr int kL = 12;

const RunRequest kReq{.strategy = Strategy::LP3_1,
                      .order = IndexOrder::kMajor,
                      .local_size = 768,
                      .variant = Variant::SYCL};

/// The fault-free functional output of the same kernel configuration (the
/// single-device result — the exactness oracle for every grid).
ColorField clean_output(std::uint64_t seed) {
  DslashProblem problem(kL, seed);
  const DslashRunner single;
  single.run_functional(problem, kReq.strategy, kReq.order, kReq.local_size);
  return problem.c();
}

MultiDevResult run_hardened(DslashProblem& problem, const PartitionGrid& grid) {
  const MultiDeviceRunner runner;
  MultiDevRequest mreq;
  mreq.grid = grid;
  mreq.req = kReq;
  return runner.run(problem, mreq);
}

TEST(MultidevChaos, NoPlanDispatchesToTheUntouchedPath) {
  // With no injector installed, run() must behave exactly like the pre-fault
  // implementation: identical field output, default exchange accounting, no
  // recovery bookkeeping.  (Profiled timings are not compared: simulated
  // stats depend on the addresses of per-run scratch allocations.)
  DslashProblem a(kL, /*seed=*/5);
  const MultiDeviceRunner runner;
  MultiDevRequest mreq;
  mreq.grid = PartitionGrid::along(3, 2);
  mreq.req = kReq;
  const MultiDevResult r1 = runner.run(a, mreq);
  const ColorField first = a.c();
  (void)runner.run(a, mreq);

  EXPECT_EQ(max_abs_diff(first, a.c()), 0.0);
  EXPECT_TRUE(r1.recovered);
  EXPECT_EQ(r1.final_grid.label(), mreq.grid.label());
  EXPECT_EQ(r1.recovery_us, 0.0);
  EXPECT_TRUE(r1.exchange.events.empty());
  EXPECT_TRUE(r1.failovers.empty());
  EXPECT_TRUE(r1.shard_recoveries.empty());
  EXPECT_TRUE(r1.faults.empty());
}

TEST(MultidevChaos, EmptyPlanHardenedRunIsExactAndClean) {
  // An installed plan with every probability zero exercises the hardened
  // machinery (checksums, rounds, reports) with nothing firing: the output
  // must still be bit-for-bit and the exchange report clean.
  const ColorField expected = clean_output(/*seed=*/5);
  DslashProblem problem(kL, /*seed=*/5);
  FaultPlan plan;
  plan.seed = 1;
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened(problem, PartitionGrid::along(3, 2));

  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0);
  EXPECT_TRUE(res.recovered);
  EXPECT_TRUE(res.exchange.succeeded);
  EXPECT_TRUE(res.exchange.clean()) << res.exchange.summary();
  EXPECT_EQ(res.exchange.messages, 4);  // 2 shards x 2 inbound slabs
  EXPECT_EQ(res.exchange.rounds, 1);
  EXPECT_TRUE(res.faults.empty());
  EXPECT_EQ(res.recovery_us, 0.0);
}

/// One placement the empty-plan identity is checked on.
struct EmptyPlanCase {
  const char* name;
  PartitionGrid grid;
  gpusim::NodeTopology topo;
  WireFormat wire;
};

void PrintTo(const EmptyPlanCase& c, std::ostream* os) { *os << c.name; }

class MultidevEmptyPlan : public ::testing::TestWithParam<EmptyPlanCase> {};

TEST_P(MultidevEmptyPlan, InstalledPlanThatInjectsNothingChangesNothing) {
  // The fault policy comes from the injector, not from a second pipeline:
  // a plan that injects nothing adds checksums and receiver-side copies,
  // never time or traffic.  Every timeline and accounting field of the
  // profiled run, and the output field, must equal the no-plan run bit for
  // bit — including the fabric-first two-phase pack schedule and the
  // intra-node byte count.
  const EmptyPlanCase& c = GetParam();
  const MultiDeviceRunner runner;
  MultiDevRequest mreq;
  mreq.grid = c.grid;
  mreq.req = kReq;
  mreq.topo = c.topo;
  mreq.wire = c.wire;

  DslashProblem bare(kL, /*seed=*/13);
  const MultiDevResult plain = runner.run(bare, mreq);
  DslashProblem planned(kL, /*seed=*/13);
  MultiDevResult hard;
  {
    ScopedFaultInjection fi(FaultPlan{});
    hard = runner.run(planned, mreq);
  }

  EXPECT_TRUE(hard.exchange.succeeded) << "the hardened policy must have run";
  EXPECT_TRUE(hard.exchange.clean()) << hard.exchange.summary();
  EXPECT_EQ(max_abs_diff(bare.c(), planned.c()), 0.0);
  EXPECT_EQ(hard.label, plain.label);
  EXPECT_EQ(hard.devices, plain.devices);
  EXPECT_EQ(hard.per_iter_us, plain.per_iter_us);
  EXPECT_EQ(hard.gflops, plain.gflops);
  EXPECT_EQ(hard.overlap_efficiency, plain.overlap_efficiency);
  EXPECT_EQ(hard.comm_fraction, plain.comm_fraction);
  EXPECT_EQ(hard.surface_fraction, plain.surface_fraction);
  EXPECT_EQ(hard.halo_bytes, plain.halo_bytes);
  EXPECT_EQ(hard.nodes, plain.nodes);
  EXPECT_EQ(hard.intra_node_bytes, plain.intra_node_bytes);
  EXPECT_EQ(hard.inter_node_bytes, plain.inter_node_bytes);
  EXPECT_EQ(hard.fabric_messages, plain.fabric_messages);
  EXPECT_EQ(hard.intra_wire_us, plain.intra_wire_us);
  EXPECT_EQ(hard.inter_wire_us, plain.inter_wire_us);
  EXPECT_EQ(hard.recovery_us, plain.recovery_us);
  ASSERT_EQ(hard.per_device.size(), plain.per_device.size());
  for (std::size_t d = 0; d < plain.per_device.size(); ++d) {
    SCOPED_TRACE("rank " + std::to_string(d));
    const DeviceTimeline& a = plain.per_device[d];
    const DeviceTimeline& b = hard.per_device[d];
    EXPECT_EQ(b.rank, a.rank);
    EXPECT_EQ(b.interior_sites, a.interior_sites);
    EXPECT_EQ(b.boundary_sites, a.boundary_sites);
    EXPECT_EQ(b.halo_bytes_in, a.halo_bytes_in);
    EXPECT_EQ(b.pack_us, a.pack_us);
    EXPECT_EQ(b.interior_us, a.interior_us);
    EXPECT_EQ(b.arrival_us, a.arrival_us);
    EXPECT_EQ(b.unpack_us, a.unpack_us);
    EXPECT_EQ(b.boundary_us, a.boundary_us);
    EXPECT_EQ(b.exposed_us, a.exposed_us);
    EXPECT_EQ(b.iter_us, a.iter_us);
  }
}

std::string empty_plan_case_name(const ::testing::TestParamInfo<EmptyPlanCase>& p) {
  return p.param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Placements, MultidevEmptyPlan,
    ::testing::Values(
        EmptyPlanCase{"OneNode1x1x1x2", PartitionGrid{.devices = {1, 1, 1, 2}}, {}, {}},
        EmptyPlanCase{"Cluster2x2", PartitionGrid{.devices = {1, 1, 2, 2}},
                      gpusim::cluster(2, 2), {}},
        EmptyPlanCase{"Cluster2x2Fp16R9", PartitionGrid{.devices = {1, 1, 2, 2}},
                      gpusim::cluster(2, 2),
                      WireFormat{.spinor = SpinorWire::fp16, .gauge = Reconstruct::k9}}),
    empty_plan_case_name);

TEST(MultidevChaos, ScheduledDropIsRetransmittedBitForBit) {
  const ColorField expected = clean_output(/*seed=*/7);
  DslashProblem problem(kL, /*seed=*/7);
  FaultPlan plan;
  plan.seed = 3;
  plan.schedule.push_back(
      ScheduledFault{FaultKind::msg_drop, 0, 1, "halo-exchange r0->r1"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened(problem, PartitionGrid::along(3, 2));

  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0)
      << "retransmission must restore the exact wire bytes";
  EXPECT_TRUE(res.recovered);
  EXPECT_TRUE(res.exchange.succeeded);
  EXPECT_EQ(res.exchange.drops, 1);
  EXPECT_EQ(res.exchange.retransmissions, 1);
  EXPECT_EQ(res.exchange.rounds, 2);
  EXPECT_GT(res.exchange.backoff_us, 0.0);
  EXPECT_GT(res.recovery_us, 0.0);
  ASSERT_EQ(res.faults.size(), 1u);
  EXPECT_EQ(res.faults[0].kind, FaultKind::msg_drop);
  EXPECT_EQ(res.faults[0].site, "halo-exchange r0->r1");

  // The event trail shows the drop in round 1 and the delivery in round 2.
  bool dropped_r1 = false, delivered_r2 = false;
  for (const ExchangeEvent& ev : res.exchange.events) {
    if (ev.site == "halo-exchange r0->r1" && ev.round == 1 && ev.dropped) dropped_r1 = true;
    if (ev.site == "halo-exchange r0->r1" && ev.round == 2 && ev.delivered)
      delivered_r2 = true;
  }
  EXPECT_TRUE(dropped_r1);
  EXPECT_TRUE(delivered_r2);
}

TEST(MultidevChaos, CorruptedPayloadIsCaughtByChecksumAndHealed) {
  const ColorField expected = clean_output(/*seed=*/7);
  DslashProblem problem(kL, /*seed=*/7);
  FaultPlan plan;
  plan.seed = 3;
  plan.schedule.push_back(
      ScheduledFault{FaultKind::msg_corrupt, 0, 1, "halo-exchange r1->r0"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened(problem, PartitionGrid::along(3, 2));

  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0)
      << "a corrupted delivery must never be unpacked";
  EXPECT_TRUE(res.exchange.succeeded);
  EXPECT_EQ(res.exchange.corruptions, 1);
  EXPECT_EQ(res.exchange.checksum_failures, 1);
  EXPECT_EQ(res.exchange.retransmissions, 1);
  bool flagged = false;
  for (const ExchangeEvent& ev : res.exchange.events) {
    if (ev.corrupted && !ev.checksum_ok && !ev.delivered) flagged = true;
  }
  EXPECT_TRUE(flagged) << "the corrupt round-1 delivery must be in the event trail";
}

TEST(MultidevChaos, DelayedMessageIsExactButSlower) {
  const ColorField expected = clean_output(/*seed=*/7);
  DslashProblem problem(kL, /*seed=*/7);
  FaultPlan plan;
  plan.seed = 3;
  plan.delay_latency_us = 500.0;
  plan.schedule.push_back(
      ScheduledFault{FaultKind::msg_delay, 0, 1, "halo-exchange r0->r1"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened(problem, PartitionGrid::along(3, 2));

  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0);
  EXPECT_TRUE(res.exchange.succeeded);
  EXPECT_EQ(res.exchange.delays, 1);
  EXPECT_EQ(res.exchange.retransmissions, 0) << "a delayed message still delivers";
  EXPECT_EQ(res.exchange.rounds, 1);
}

class MultidevChaosStorm : public ::testing::TestWithParam<Coords> {};

TEST_P(MultidevChaosStorm, LinkStormRecoversExactOutputOnEveryGrid) {
  const PartitionGrid grid{.devices = GetParam()};
  const ColorField expected = clean_output(/*seed=*/11);
  ColorField ref(LatticeGeom(kL), Parity::Even);
  {
    DslashProblem problem(kL, /*seed=*/11);
    dslash_reference(problem.view(), problem.neighbors(), problem.b(), ref);
  }

  DslashProblem problem(kL, /*seed=*/11);
  FaultPlan plan;
  plan.seed = 2024;
  plan.p_msg_drop = 0.3;
  plan.p_msg_corrupt = 0.3;
  plan.p_msg_delay = 0.3;
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened(problem, grid);

  EXPECT_TRUE(res.recovered);
  EXPECT_TRUE(res.exchange.succeeded) << res.exchange.summary();
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0)
      << "link faults must be invisible in the output, grid " << grid.label();
  EXPECT_LT(max_abs_diff(ref, problem.c()), 1e-9);

  // Every fired fault is enumerated, and the report agrees with the log.
  int drops = 0, corruptions = 0, delays = 0;
  for (const faultsim::FaultEvent& ev : res.faults) {
    drops += ev.kind == FaultKind::msg_drop ? 1 : 0;
    corruptions += ev.kind == FaultKind::msg_corrupt ? 1 : 0;
    delays += ev.kind == FaultKind::msg_delay ? 1 : 0;
  }
  EXPECT_GT(drops + corruptions + delays, 0) << "the storm must actually fire";
  EXPECT_EQ(res.exchange.drops, drops);
  EXPECT_EQ(res.exchange.corruptions, corruptions);
  EXPECT_EQ(res.exchange.delays, delays);
  EXPECT_EQ(res.exchange.checksum_failures, corruptions);
  // Every failed delivery is retransmitted in the next round — except the
  // final round of an exchange that exhausts its budget and fails over, whose
  // losses are healed by the retried attempt rather than a further round.
  EXPECT_GE(res.exchange.retransmissions, 1);
  EXPECT_LE(res.exchange.retransmissions, drops + corruptions);
}

INSTANTIATE_TEST_SUITE_P(Grids, MultidevChaosStorm,
                         ::testing::Values(Coords{1, 1, 1, 2},  // 2 devices
                                           Coords{1, 1, 2, 2},  // 4 devices
                                           Coords{1, 2, 2, 2}   // 8 devices
                                           ),
                         [](const ::testing::TestParamInfo<Coords>& param) {
                           const Coords& d = param.param;
                           return std::to_string(d[0]) + "x" + std::to_string(d[1]) + "x" +
                                  std::to_string(d[2]) + "x" + std::to_string(d[3]);
                         });

TEST(MultidevChaos, StormIsDeterministicFromItsSeed) {
  auto run_once = [] {
    DslashProblem problem(kL, /*seed=*/11);
    FaultPlan plan;
    plan.seed = 99;
    plan.p_msg_drop = 0.2;
    plan.p_msg_corrupt = 0.2;
    ScopedFaultInjection fi(plan);
    MultiDevResult res = run_hardened(problem, PartitionGrid{.devices = {1, 1, 2, 2}});
    return std::make_pair(std::move(res), problem.c());
  };
  const auto [r1, c1] = run_once();
  const auto [r2, c2] = run_once();
  EXPECT_EQ(max_abs_diff(c1, c2), 0.0);
  ASSERT_EQ(r1.faults.size(), r2.faults.size());
  for (std::size_t i = 0; i < r1.faults.size(); ++i) {
    EXPECT_EQ(r1.faults[i].kind, r2.faults[i].kind);
    EXPECT_EQ(r1.faults[i].site, r2.faults[i].site);
    EXPECT_EQ(r1.faults[i].occurrence, r2.faults[i].occurrence);
  }
  ASSERT_EQ(r1.exchange.events.size(), r2.exchange.events.size());
  EXPECT_EQ(r1.exchange.retransmissions, r2.exchange.retransmissions);
  EXPECT_EQ(r1.recovery_us, r2.recovery_us);
}

TEST(MultidevChaos, StickyShardFaultRetriesWithoutTouchingOtherShards) {
  // A transient fault pinned to rank 1's boundary kernel (at 12^4 with
  // local extent 6 every site is within halo depth of a face, so boundary
  // ranges always launch): the retry clears it within the budget at the
  // *same* strategy, so the whole field — every shard — is still
  // bit-for-bit the fault-free output.
  const ColorField expected = clean_output(/*seed=*/13);
  DslashProblem problem(kL, /*seed=*/13);
  FaultPlan plan;
  plan.seed = 4;
  plan.schedule.push_back(ScheduledFault{FaultKind::sticky_fault, 0, 2, "dslash-boundary r1"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened(problem, PartitionGrid{.devices = {1, 1, 2, 2}});

  EXPECT_TRUE(res.recovered);
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0);
  ASSERT_GE(res.shard_recoveries.size(), 2u);
  for (const ShardRecovery& sr : res.shard_recoveries) {
    EXPECT_EQ(sr.rank, 1) << "recovery actions must stay on the faulted shard";
    EXPECT_EQ(sr.action, "retry");
    EXPECT_EQ(sr.strategy, Strategy::LP3_1);
  }
  EXPECT_GT(res.recovery_us, 0.0);
}

TEST(MultidevChaos, ExhaustedRetriesWalkTheStrategyLadderShardLocally) {
  // Rank 1's boundary kernel faults for 8 consecutive launches: 4 attempts
  // at 3LP-1, 4 at 2LP, then 1LP succeeds.  The fallback changes that one
  // range's summation order, so rank 1 may differ at roundoff — but every
  // *other* shard's sites must remain bit-identical to the fault-free run.
  const PartitionGrid grid{.devices = {1, 1, 2, 2}};
  const ColorField expected = clean_output(/*seed=*/13);
  DslashProblem problem(kL, /*seed=*/13);
  FaultPlan plan;
  plan.seed = 4;
  plan.schedule.push_back(ScheduledFault{FaultKind::sticky_fault, 0, 8, "dslash-boundary r1"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened(problem, grid);

  EXPECT_TRUE(res.recovered);
  std::vector<Strategy> abandoned;  // the rung a "fallback" record walks away from
  for (const ShardRecovery& sr : res.shard_recoveries) {
    EXPECT_EQ(sr.rank, 1);
    if (sr.action == "fallback") abandoned.push_back(sr.strategy);
  }
  ASSERT_EQ(abandoned.size(), 2u) << "8 scheduled faults must exhaust 3LP-1 and 2LP";
  EXPECT_EQ(abandoned[0], Strategy::LP3_1);
  EXPECT_EQ(abandoned[1], Strategy::LP2);

  // Shard-locality of the divergence: map every site back to its owner.
  const Partitioner part(problem.geom(), grid, problem.target_parity());
  double rank1_diff = 0.0;
  for (const Shard& sh : part.shards()) {
    for (std::int64_t t = 0; t < sh.targets(); ++t) {
      const std::int64_t site = sh.target_eo[static_cast<std::size_t>(t)];
      double d = 0.0;
      for (int c = 0; c < kColors; ++c) {
        d = std::max(d, std::abs(expected[site].c[c].re - problem.c()[site].c[c].re));
        d = std::max(d, std::abs(expected[site].c[c].im - problem.c()[site].c[c].im));
      }
      if (sh.rank == 1) {
        rank1_diff = std::max(rank1_diff, d);
      } else {
        EXPECT_EQ(d, 0.0) << "rank " << sh.rank << " site " << site
                          << " must not see rank 1's fallback";
      }
    }
  }
  EXPECT_LT(rank1_diff, 1e-9) << "the 1LP fallback output is still correct";
}

TEST(MultidevChaos, DeviceLossFailsOverToASmallerGridWithExactOutput) {
  const ColorField expected = clean_output(/*seed=*/17);
  DslashProblem problem(kL, /*seed=*/17);
  FaultPlan plan;
  plan.seed = 6;
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 0, 1, "device r1 @ 1x1x1x2"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened(problem, PartitionGrid::along(3, 2));

  EXPECT_TRUE(res.recovered);
  ASSERT_EQ(res.failovers.size(), 1u);
  EXPECT_EQ(res.failovers[0].from.label(), "1x1x1x2");
  EXPECT_EQ(res.failovers[0].to.label(), "1x1x1x1");
  EXPECT_EQ(res.final_grid.total(), 1);
  EXPECT_EQ(res.devices, 1);
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0)
      << "the replay on the surviving grid is the same arithmetic";
  ASSERT_EQ(res.faults.size(), 1u);
  EXPECT_EQ(res.faults[0].kind, FaultKind::device_loss);
}

TEST(MultidevChaos, CascadingDeviceLossWalksTheFallbackLadder) {
  // Lose a device on the 4-way grid *and* on the first 2-way fallback: the
  // run must step 1x1x2x2 -> 1x1x1x2 -> 1x1x1x1 and still produce the exact
  // field on the lone survivor.
  const ColorField expected = clean_output(/*seed=*/17);
  DslashProblem problem(kL, /*seed=*/17);
  FaultPlan plan;
  plan.seed = 6;
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 0, 1, "device r2 @ 1x1x2x2"});
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 0, 1, "device r0 @ 1x1x1x2"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened(problem, PartitionGrid{.devices = {1, 1, 2, 2}});

  EXPECT_TRUE(res.recovered);
  ASSERT_EQ(res.failovers.size(), 2u);
  EXPECT_EQ(res.failovers[0].from.label(), "1x1x2x2");
  EXPECT_EQ(res.failovers[0].to.label(), "1x1x1x2");
  EXPECT_EQ(res.failovers[1].from.label(), "1x1x1x2");
  EXPECT_EQ(res.failovers[1].to.label(), "1x1x1x1");
  EXPECT_EQ(res.final_grid.total(), 1);
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0);
}

TEST(MultidevChaos, UnbrokenDropStormExhaustsRoundsAndReportsFailure) {
  // Every delivery on one link drops and the budget is bounded: the exchange
  // must fail closed — watchdog/rounds accounted, recovered == false, never
  // a partial unpack presented as success.
  DslashProblem problem(kL, /*seed=*/19);
  FaultPlan plan;
  plan.seed = 8;
  plan.schedule.push_back(
      ScheduledFault{FaultKind::msg_drop, 0, 1000, "halo-exchange r0->r1"});
  ScopedFaultInjection fi(plan);

  const MultiDeviceRunner runner;
  MultiDevRequest mreq;
  mreq.grid = PartitionGrid::along(3, 2);
  mreq.req = kReq;
  const MultiDevResult res = runner.run(problem, mreq);

  // The exchange failure triggers failover; the 1x1x1x1 grid has no links,
  // so the run still completes on the lone device (and its trivial exchange
  // is what leaves `succeeded` true in the cumulative report).
  EXPECT_TRUE(res.recovered);
  ASSERT_GE(res.failovers.size(), 1u);
  EXPECT_NE(res.failovers[0].reason.find("exchange"), std::string::npos)
      << res.failovers[0].reason;
  EXPECT_GE(res.exchange.drops, 2);
  EXPECT_GE(res.exchange.retransmissions, 1);
  const ColorField expected = clean_output(/*seed=*/19);
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0);
}

TEST(MultidevChaos, ExhaustedHaloKernelAbortsWithoutTrailingBackoff) {
  // The first pack kernel on the r0->r1 link fails all 4 attempts.  Like a
  // Dslash range on its last rung, the last attempt aborts and charges no
  // backoff nothing would wait for; the run fails over to the lone device.
  DslashProblem problem(kL, /*seed=*/21);
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::launch_fail, 0, 4, "halo-pack r0->r1"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened(problem, PartitionGrid::along(3, 2));

  EXPECT_TRUE(res.recovered);
  ASSERT_EQ(res.failovers.size(), 1u);
  EXPECT_EQ(res.failovers[0].to.label(), "1x1x1x1");
  EXPECT_NE(res.failovers[0].reason.find("exhausted its retries"), std::string::npos)
      << res.failovers[0].reason;
  EXPECT_EQ(max_abs_diff(clean_output(/*seed=*/21), problem.c()), 0.0);

  const std::vector<std::string> actions = {"retry", "retry", "retry", "abort"};
  const std::vector<double> backoffs = {50.0, 100.0, 200.0, 0.0};
  ASSERT_EQ(res.shard_recoveries.size(), actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    EXPECT_EQ(res.shard_recoveries[i].action, actions[i]) << "attempt " << i;
    EXPECT_EQ(res.shard_recoveries[i].backoff_us, backoffs[i]) << "attempt " << i;
  }
  EXPECT_EQ(res.recovery_us, 350.0);
}

// --- fabric-tier chaos -------------------------------------------------------

MultiDevResult run_hardened_topo(DslashProblem& problem, const PartitionGrid& grid,
                                 const gpusim::NodeTopology& topo) {
  const MultiDeviceRunner runner;
  MultiDevRequest mreq;
  mreq.grid = grid;
  mreq.req = kReq;
  mreq.topo = topo;
  return runner.run(problem, mreq);
}

TEST(MultidevChaos, FabricStormRecoversExactOutputAcrossNodes) {
  // The same storm as the single-island case, but over a 2x2 cluster: the
  // probabilistic draws now also hit the aggregated fabric wires, whose unit
  // of loss is a whole coalesced message.  Retransmission must still restore
  // the exact bytes.
  const ColorField expected = clean_output(/*seed=*/11);
  DslashProblem problem(kL, /*seed=*/11);
  FaultPlan plan;
  plan.seed = 2024;
  plan.p_msg_drop = 0.25;
  plan.p_msg_corrupt = 0.25;
  plan.p_msg_delay = 0.25;
  ScopedFaultInjection fi(plan);
  const MultiDevResult res =
      run_hardened_topo(problem, PartitionGrid{.devices = {1, 1, 2, 2}}, gpusim::cluster(2, 2));

  EXPECT_TRUE(res.recovered);
  EXPECT_TRUE(res.exchange.succeeded) << res.exchange.summary();
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0)
      << "fabric faults must be invisible in the output";
  EXPECT_EQ(res.nodes, 2);
  EXPECT_GT(res.fabric_messages, 0);

  bool fabric_fault = false;
  for (const faultsim::FaultEvent& ev : res.faults) {
    fabric_fault |= ev.site.find("fabric-exchange") != std::string::npos;
  }
  EXPECT_TRUE(fabric_fault) << "with this seed the storm must hit a fabric wire";
}

TEST(MultidevChaos, NodeLossFailsOverBelowTheSurvivorCount) {
  // Node n1 dies: both of its devices vanish at once, so one fallback_grid
  // step (4 -> 2) is forced in a single failover, and the survivors — now a
  // lone NVLink island — replay the exact field.
  const ColorField expected = clean_output(/*seed=*/17);
  DslashProblem problem(kL, /*seed=*/17);
  FaultPlan plan;
  plan.seed = 6;
  plan.schedule.push_back(ScheduledFault{FaultKind::node_loss, 0, 1, "node n1 @ 1x1x2x2"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res =
      run_hardened_topo(problem, PartitionGrid{.devices = {1, 1, 2, 2}}, gpusim::cluster(2, 2));

  EXPECT_TRUE(res.recovered);
  ASSERT_EQ(res.failovers.size(), 1u);
  EXPECT_EQ(res.failovers[0].from.label(), "1x1x2x2");
  EXPECT_LE(res.failovers[0].to.total(), 2) << "the new grid must fit the 2 survivors";
  EXPECT_NE(res.failovers[0].reason.find("node n1"), std::string::npos)
      << res.failovers[0].reason;
  EXPECT_EQ(res.nodes, 1) << "the post-failover remnant is a single island";
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0);
  ASSERT_EQ(res.faults.size(), 1u);
  EXPECT_EQ(res.faults[0].kind, FaultKind::node_loss);
}

TEST(MultidevChaos, NodeLossStormStillConvergesBitForBit) {
  // A node loss in the middle of a link storm: the failover replays on the
  // survivors under the same storm, and the final field must still be the
  // fault-free output bit for bit.
  const ColorField expected = clean_output(/*seed=*/17);
  DslashProblem problem(kL, /*seed=*/17);
  FaultPlan plan;
  plan.seed = 2024;
  plan.p_msg_drop = 0.2;
  plan.p_msg_corrupt = 0.2;
  plan.schedule.push_back(ScheduledFault{FaultKind::node_loss, 0, 1, "node n1 @ 1x1x2x2"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res =
      run_hardened_topo(problem, PartitionGrid{.devices = {1, 1, 2, 2}}, gpusim::cluster(2, 2));

  EXPECT_TRUE(res.recovered);
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0);
  ASSERT_GE(res.failovers.size(), 1u);
  bool node_lost = false;
  for (const faultsim::FaultEvent& ev : res.faults) {
    node_lost |= ev.kind == FaultKind::node_loss;
  }
  EXPECT_TRUE(node_lost);
}

// --- elastic recovery: hot spares and live rejoin ---------------------------

TEST(MultidevChaos, HotSpareReReplicationKeepsTheGridAndExactOutput) {
  // With a hot spare declared, a lost device's shard is re-replicated onto
  // the spare over the priced interconnect instead of shrinking the grid —
  // the run finishes at full capacity with the exact field.
  const ColorField expected = clean_output(/*seed=*/17);
  DslashProblem problem(kL, /*seed=*/17);
  gpusim::NodeTopology topo;
  topo.spares.devices_per_node = 1;
  FaultPlan plan;
  plan.seed = 6;
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 0, 1, "device r1 @ 1x1x1x2"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened_topo(problem, PartitionGrid::along(3, 2), topo);

  EXPECT_TRUE(res.recovered);
  EXPECT_EQ(res.spares_consumed, 1);
  EXPECT_EQ(res.final_grid.label(), "1x1x1x2") << "re-replication must not shrink";
  EXPECT_EQ(res.devices, 2);
  EXPECT_GT(res.rereplicated_bytes, 0);
  EXPECT_GT(res.rereplication_us, 0.0);
  EXPECT_GT(res.recovery_us, 0.0);
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0)
      << "the adopted replica must carry the exact shard state";
  ASSERT_GE(res.failovers.size(), 1u);
  EXPECT_NE(res.failovers[0].reason.find("re-replicated onto hot spare"), std::string::npos)
      << res.failovers[0].reason;
}

TEST(MultidevChaos, KillThenHealRejoinsTheAbandonedGridExactly) {
  // No spares: the loss shrinks 1x1x1x2 -> 1x1x1x1 and parks the abandoned
  // grid as a rejoin target.  A scheduled heal of the lost device then
  // re-admits it — shard state re-replicated, grid restored — and the run
  // finishes at full capacity with the exact field.
  const ColorField expected = clean_output(/*seed=*/17);
  DslashProblem problem(kL, /*seed=*/17);
  FaultPlan plan;
  plan.seed = 6;
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 0, 1, "device r1 @ 1x1x1x2"});
  plan.schedule.push_back(ScheduledFault{FaultKind::heal, 0, 1, "heal/device r1"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res = run_hardened(problem, PartitionGrid::along(3, 2));

  EXPECT_TRUE(res.recovered);
  EXPECT_GE(res.rejoins, 1);
  EXPECT_GE(res.capacity_restored, 1);
  EXPECT_EQ(res.final_grid.label(), "1x1x1x2") << "the heal must restore full capacity";
  EXPECT_GT(res.rereplicated_bytes, 0);
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0);
  bool shrank = false, rejoined = false;
  for (const FailoverEvent& f : res.failovers) {
    shrank = shrank || f.to.total() < f.from.total();
    rejoined = rejoined || f.reason.find("healed; rejoined") != std::string::npos;
  }
  EXPECT_TRUE(shrank) << "the loss must first shrink (no spares declared)";
  EXPECT_TRUE(rejoined);
  bool healed = false;
  for (const faultsim::FaultEvent& ev : res.faults) {
    healed = healed || ev.kind == FaultKind::heal;
  }
  EXPECT_TRUE(healed) << "the heal must be enumerated alongside the faults";
}

TEST(MultidevChaos, StandbyNodeAdoptsALostNodeAtFullCapacity) {
  // Node n1 of a 2x2 cluster dies with a standby node declared: the whole
  // node group is re-replicated across the fabric instead of shrinking the
  // grid below the survivor count.
  const ColorField expected = clean_output(/*seed=*/17);
  DslashProblem problem(kL, /*seed=*/17);
  gpusim::NodeTopology topo = gpusim::cluster(2, 2);
  topo.spares.nodes = 1;
  FaultPlan plan;
  plan.seed = 6;
  plan.schedule.push_back(ScheduledFault{FaultKind::node_loss, 0, 1, "node n1 @ 1x1x2x2"});
  ScopedFaultInjection fi(plan);
  const MultiDevResult res =
      run_hardened_topo(problem, PartitionGrid{.devices = {1, 1, 2, 2}}, topo);

  EXPECT_TRUE(res.recovered);
  EXPECT_EQ(res.spares_consumed, 1);
  EXPECT_EQ(res.final_grid.label(), "1x1x2x2");
  EXPECT_EQ(res.devices, 4);
  EXPECT_GT(res.rereplicated_bytes, 0);
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0);
  ASSERT_GE(res.failovers.size(), 1u);
  EXPECT_NE(res.failovers[0].reason.find("re-replicated onto standby node"), std::string::npos)
      << res.failovers[0].reason;
}

TEST(MultidevChaos, ElasticRecoveryReplaysBitForBitFromItsSeed) {
  // The full kill-then-heal cycle is part of the deterministic replay
  // contract: same seed, same rejoins, same re-replication accounting, same
  // output bits.
  auto run_once = [] {
    DslashProblem problem(kL, /*seed=*/17);
    FaultPlan plan;
    plan.seed = 6;
    plan.schedule.push_back(
        ScheduledFault{FaultKind::device_loss, 0, 1, "device r1 @ 1x1x1x2"});
    plan.schedule.push_back(ScheduledFault{FaultKind::heal, 0, 1, "heal/device r1"});
    ScopedFaultInjection fi(plan);
    MultiDevResult res = run_hardened(problem, PartitionGrid::along(3, 2));
    return std::make_pair(std::move(res), problem.c());
  };
  const auto [r1, c1] = run_once();
  const auto [r2, c2] = run_once();
  EXPECT_EQ(max_abs_diff(c1, c2), 0.0);
  EXPECT_EQ(r1.rejoins, r2.rejoins);
  EXPECT_EQ(r1.capacity_restored, r2.capacity_restored);
  EXPECT_EQ(r1.rereplicated_bytes, r2.rereplicated_bytes);
  EXPECT_EQ(r1.rereplication_us, r2.rereplication_us);
  EXPECT_EQ(r1.recovery_us, r2.recovery_us);
  ASSERT_EQ(r1.faults.size(), r2.faults.size());
}

TEST(MultidevChaos, OneLayoutCacheServesEverySourceAndEveryGridVisited) {
  // One layout cache threaded through consecutive applies, as the sharded CG
  // does: the first apply builds the grid's partition and links and later
  // sources reuse them; a loss with no spare builds the shrunk grid's layout
  // once, and the heal rejoins on the layout already cached.
  DslashProblem problem(Coords{4, 4, 12, 12}, /*seed=*/23);
  const PartitionGrid full{.devices = {1, 1, 2, 2}};
  const MultiDeviceRunner runner;
  MultiDevRequest mreq;
  mreq.grid = full;
  mreq.req = kReq;
  mreq.topo = gpusim::cluster(2, 2);
  mreq.mode = minisycl::ExecMode::functional;
  ShardLayouts layouts;

  // The oracle per source is the single-device output of the same kernel,
  // whose summation order the shard kernels share (dslash_reference's
  // differs in the last bits).
  const DslashRunner single;
  std::vector<ColorField> expected;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    problem.b().fill_random(seed);
    single.run_functional(problem, kReq.strategy, kReq.order, kReq.local_size);
    expected.push_back(problem.c());
  }
  const auto apply = [&](std::uint64_t seed) {
    problem.b().fill_random(seed);
    problem.c().zero();
    MultiDevResult res = runner.run(problem, mreq, layouts);
    EXPECT_EQ(max_abs_diff(expected[seed - 1], problem.c()), 0.0) << "source seed " << seed;
    return res;
  };

  for (std::uint64_t seed = 1; seed <= 3; ++seed) apply(seed);
  ASSERT_EQ(layouts.size(), 1u);
  const ShardLayout* full_layout = &layouts.get(problem, full);

  FaultPlan plan;
  plan.seed = 6;
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 0, 1, "device r1 @ 1x1x2x2"});
  // The shrinking run consults the heal stream once; the heal fires on the
  // next apply's consult, so one apply runs on the shrunk grid.
  plan.schedule.push_back(ScheduledFault{FaultKind::heal, 1, 1, "heal/device r1"});
  ScopedFaultInjection fi(plan);

  const MultiDevResult shrunk = apply(4);
  ASSERT_EQ(shrunk.final_grid.label(), "1x1x1x2");
  EXPECT_EQ(layouts.size(), 2u) << "the shrunk grid's layout is built once";

  mreq.grid = shrunk.final_grid;
  mreq.rejoin_grid = full;
  mreq.rejoin_what = "device r1";
  const MultiDevResult rejoined = apply(5);
  EXPECT_EQ(rejoined.rejoins, 1);
  EXPECT_EQ(rejoined.final_grid.label(), "1x1x2x2");
  EXPECT_EQ(layouts.size(), 2u) << "the rejoin must not build a layout";
  EXPECT_EQ(&layouts.get(problem, full), full_layout) << "the rejoin reuses the cached layout";

  const DslashProblem odd(Coords{4, 4, 12, 12}, /*seed=*/23, Parity::Odd);
  EXPECT_THROW((void)layouts.get(odd, full), std::invalid_argument)
      << "a cache serves only its own problem";
}

TEST(MultidevChaos, FallbackGridHalvesTheLowestSplitDimension) {
  EXPECT_EQ(fallback_grid(PartitionGrid{.devices = {2, 2, 2, 1}}).label(), "1x2x2x1");
  EXPECT_EQ(fallback_grid(PartitionGrid{.devices = {1, 1, 1, 4}}).label(), "1x1x1x2");
  EXPECT_EQ(fallback_grid(PartitionGrid{.devices = {1, 3, 1, 1}}).label(), "1x1x1x1");
  EXPECT_EQ(fallback_grid(PartitionGrid{}).label(), "1x1x1x1");
}

}  // namespace
}  // namespace milc::multidev
