// test_dsan.cpp — the distributed sanitizer: clean on every real protocol
// flow, loud on every seeded defect.
//
// Two halves.  The clean half records genuine runs — plain grids, the
// hardened retransmit flow, a multi-node fabric exchange, a checkpointed
// sharded-CG solve — and asserts every checker comes back clean (and that
// recording itself leaves the computed field bit-for-bit untouched).  The
// bug zoo then mutates recorded traces — Trace.events is a plain vector for
// exactly this purpose — to prove each checker fires on its defect with the
// site-grammar names in the offence notes: a race needs the pack/unpack
// sites, a protocol lint the exchange site, or the finding is not actionable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dsan/check.hpp"
#include "dsan/record.hpp"
#include "multidev/runner.hpp"
#include "multidev/sharded_cg.hpp"

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

/// Record one multi-device run as a dsan trace (hardened when `plan` is
/// given, fabric-priced when `topo` spans nodes).
dsan::Trace record_run(const PartitionGrid& grid, const FaultPlan* plan = nullptr,
                       gpusim::NodeTopology topo = {}) {
  DslashProblem problem(kL, /*seed=*/3);
  const MultiDeviceRunner runner;
  MultiDevRequest mreq;
  mreq.grid = grid;
  mreq.req = kReq;
  mreq.topo = topo;
  dsan::ScopedRecorder sr;
  if (plan != nullptr) {
    ScopedFaultInjection fi(*plan);
    (void)runner.run(problem, mreq);
  } else {
    (void)runner.run(problem, mreq);
  }
  return sr.rec.take();
}

FaultPlan one_corruption_plan() {
  FaultPlan plan;
  plan.seed = 11;
  plan.schedule.push_back(
      ScheduledFault{FaultKind::msg_corrupt, 0, 1, "halo-exchange r0->r1"});
  return plan;
}

template <typename Pred>
std::size_t find_event(const dsan::Trace& t, Pred pred, std::size_t from = 0) {
  for (std::size_t i = from; i < t.events.size(); ++i) {
    if (pred(t.events[i])) return i;
  }
  return t.events.size();
}

bool note_contains(const ksan::SanitizerReport& rep, const std::string& needle) {
  return std::any_of(rep.records.begin(), rep.records.end(), [&](const ksan::Offence& o) {
    return o.note.find(needle) != std::string::npos;
  });
}

void expect_all_clean(const std::vector<ksan::SanitizerReport>& reports) {
  ASSERT_EQ(reports.size(), 4u);  // happens-before, messages, schedule, protocol
  for (const ksan::SanitizerReport& rep : reports) {
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_EQ(rep.lint_count(), 0u) << rep.summary();
  }
}

// ---------------------------------------------------------------- clean half

TEST(DsanClean, PlainTwoDeviceRunChecksClean) {
  DslashProblem problem(kL, /*seed=*/3);
  const MultiDeviceRunner runner;
  MultiDevRequest mreq;
  mreq.grid = PartitionGrid::along(3, 2);
  mreq.req = kReq;
  const std::vector<ksan::SanitizerReport> reports = runner.dsan_check(problem, mreq);
  expect_all_clean(reports);
  // The trace must be substantive: conflicting-pair and pairing checks ran.
  EXPECT_GT(reports[0].checked_global, 0u) << reports[0].summary();
  EXPECT_GT(reports[1].checked_global, 0u) << reports[1].summary();
}

TEST(DsanClean, MultiDimSplitChecksClean) {
  DslashProblem problem(kL, /*seed=*/3);
  const MultiDeviceRunner runner;
  MultiDevRequest mreq;
  mreq.grid = PartitionGrid{.devices = {1, 1, 2, 2}};
  mreq.req = kReq;
  expect_all_clean(runner.dsan_check(problem, mreq));
}

TEST(DsanClean, RecordingLeavesTheFieldBitForBitUntouched) {
  DslashProblem bare(kL, /*seed=*/9);
  DslashProblem watched(kL, /*seed=*/9);
  const MultiDeviceRunner runner;
  MultiDevRequest mreq;
  mreq.grid = PartitionGrid::along(3, 2);
  mreq.req = kReq;
  (void)runner.run(bare, mreq);
  {
    dsan::ScopedRecorder sr;
    (void)runner.run(watched, mreq);
    EXPECT_FALSE(sr.rec.trace().empty());
  }
  EXPECT_EQ(max_abs_diff(bare.c(), watched.c()), 0.0)
      << "installing the recorder must not perturb the computation";
}

TEST(DsanClean, HardenedRetransmitFlowChecksClean) {
  // One corrupted delivery forces a checksum reject + round-2 retransmit;
  // the recorded flow (fresh uid, verdict, unpack from the accepted rx
  // buffer) must satisfy every checker.
  const FaultPlan plan = one_corruption_plan();
  const dsan::Trace trace = record_run(PartitionGrid::along(3, 2), &plan);
  const std::size_t retx = find_event(
      trace, [](const dsan::Event& e) { return e.kind == dsan::EventKind::Send && e.round > 1; });
  ASSERT_LT(retx, trace.size()) << "the corruption must force a retransmission";
  expect_all_clean(dsan::check_all(trace, "hardened"));
}

TEST(DsanClean, MultiNodeFabricExchangeChecksClean) {
  const dsan::Trace trace =
      record_run(PartitionGrid{.devices = {1, 1, 2, 2}}, nullptr, gpusim::cluster(2, 2));
  const std::size_t fabric = find_event(trace, [](const dsan::Event& e) {
    return e.kind == dsan::EventKind::Send && e.src_node != e.dst_node;
  });
  ASSERT_LT(fabric, trace.size()) << "a 2x2 cluster run must cross the fabric";
  EXPECT_TRUE(trace.events[fabric].aggregated)
      << "fabric crossings ride aggregated frames in the real protocol";
  expect_all_clean(dsan::check_all(trace, "fabric"));
}

TEST(DsanClean, CheckpointedShardedCgSolveChecksClean) {
  ShardedCgConfig cfg;
  cfg.cg.max_iterations = 6;
  cfg.checkpoint_interval = 2;
  ShardedCgSolver solver(Coords{8, 8, 8, 12}, /*gauge_seed=*/21, /*mass=*/0.5,
                         PartitionGrid::along(3, 2), cfg);
  ColorField b(solver.geom(), Parity::Even);
  b.fill_random(/*seed=*/77);
  ColorField x(solver.geom(), Parity::Even);
  ShardedCgResult result;
  const std::vector<ksan::SanitizerReport> reports = solver.dsan_check(b, x, &result);
  expect_all_clean(reports);
  EXPECT_GT(result.checkpoints_taken, 0)
      << "the solve must actually snapshot for CheckpointInWindow coverage";
}

TEST(DsanClean, ShardedCgRestoreAfterDeviceLossChecksClean) {
  // A device lost mid-solve: the runner fails over to the survivor and the
  // solver restores its last checkpoint, then replays on the smaller grid.
  // The recorded trace holds that restore, and it must check clean.
  ShardedCgConfig cfg;
  cfg.cg.max_iterations = 400;
  cfg.checkpoint_interval = 8;
  cfg.residual_audit_factor = 100.0;
  ShardedCgSolver solver(Coords{4, 4, 4, 12}, /*gauge_seed=*/31, /*mass=*/0.5,
                         PartitionGrid::along(3, 2), cfg);
  ColorField b(solver.geom(), Parity::Even);
  b.fill_random(/*seed=*/77);
  ColorField x(solver.geom(), Parity::Even);
  FaultPlan plan;
  plan.seed = 5;
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 40, 1, "device r"});

  dsan::ScopedRecorder sr;
  ShardedCgResult result;
  {
    ScopedFaultInjection fi(plan);
    result = solver.solve(b, x);
  }
  ASSERT_TRUE(result.cg.converged) << result.summary();
  const dsan::Trace& trace = sr.rec.trace();
  const std::size_t restore = find_event(
      trace, [](const dsan::Event& e) { return e.kind == dsan::EventKind::Restore; });
  EXPECT_LT(restore, trace.events.size()) << "the failover must restore a checkpoint";
  expect_all_clean(dsan::check_all(trace, "sharded-cg restore"));
}

// ------------------------------------------------------------------ bug zoo

TEST(DsanBugZoo, ErasedDeliveriesAreACrossDeviceRace) {
  // Erase every delivery into one shard: with no Send->Recv edge left into
  // that actor, its unpack reads of the wires are unordered against the
  // producer's pack writes — a cross-device race.  (Erasing a single recv
  // is not enough: the surviving sibling delivery transitively orders the
  // earlier pack before the unpack via the producer's program order.)
  dsan::Trace trace = record_run(PartitionGrid::along(3, 2));
  const std::size_t ri = find_event(
      trace, [](const dsan::Event& e) { return e.kind == dsan::EventKind::Recv; });
  ASSERT_LT(ri, trace.size());
  const dsan::Event recv = trace.events[ri];
  const std::string pack_site =
      "halo-pack r" + std::to_string(recv.src) + "->r" + std::to_string(recv.dst);
  std::erase_if(trace.events, [&recv](const dsan::Event& e) {
    return e.kind == dsan::EventKind::Recv && e.dst == recv.dst;
  });

  const ksan::SanitizerReport rep = dsan::check_happens_before(trace, "zoo");
  EXPECT_GT(rep.count(ksan::Category::CrossDeviceRace), 0u) << rep.summary();
  EXPECT_TRUE(note_contains(rep, pack_site)) << rep.summary();
  EXPECT_TRUE(note_contains(rep, "halo-unpack")) << rep.summary();
}

TEST(DsanBugZoo, ErasedRecvIsAnUnmatchedSend) {
  dsan::Trace trace = record_run(PartitionGrid::along(3, 2));
  const std::size_t ri = find_event(
      trace, [](const dsan::Event& e) { return e.kind == dsan::EventKind::Recv; });
  ASSERT_LT(ri, trace.size());
  const std::uint64_t msg = trace.events[ri].msg;
  const std::size_t si = find_event(trace, [msg](const dsan::Event& e) {
    return e.kind == dsan::EventKind::Send && e.msg == msg;
  });
  ASSERT_LT(si, trace.size());
  const std::string send_site = trace.events[si].site;
  trace.events.erase(trace.events.begin() + static_cast<std::ptrdiff_t>(ri));

  const ksan::SanitizerReport rep = dsan::check_messages(trace, "zoo");
  EXPECT_GT(rep.count(ksan::Category::UnmatchedMessage), 0u) << rep.summary();
  EXPECT_TRUE(note_contains(rep, "site '" + send_site + "': send never received"))
      << rep.summary();
}

TEST(DsanBugZoo, DuplicatedDeliveryIsAnUnmatchedMessage) {
  dsan::Trace trace = record_run(PartitionGrid::along(3, 2));
  const std::size_t ri = find_event(
      trace, [](const dsan::Event& e) { return e.kind == dsan::EventKind::Recv; });
  ASSERT_LT(ri, trace.size());
  trace.events.insert(trace.events.begin() + static_cast<std::ptrdiff_t>(ri) + 1,
                      trace.events[ri]);

  const ksan::SanitizerReport rep = dsan::check_messages(trace, "zoo");
  EXPECT_GT(rep.count(ksan::Category::UnmatchedMessage), 0u) << rep.summary();
  EXPECT_TRUE(note_contains(rep, "duplicated delivery")) << rep.summary();
}

TEST(DsanBugZoo, RecvWithoutASendIsAnUnmatchedMessage) {
  dsan::Trace trace = record_run(PartitionGrid::along(3, 2));
  const std::size_t ri = find_event(
      trace, [](const dsan::Event& e) { return e.kind == dsan::EventKind::Recv; });
  ASSERT_LT(ri, trace.size());
  dsan::Event ghost_recv = trace.events[ri];
  ghost_recv.msg = 999'999;  // a uid no send ever issued
  trace.events.push_back(std::move(ghost_recv));

  const ksan::SanitizerReport rep = dsan::check_messages(trace, "zoo");
  EXPECT_GT(rep.count(ksan::Category::UnmatchedMessage), 0u) << rep.summary();
  EXPECT_TRUE(note_contains(rep, "recv without a matching send")) << rep.summary();
}

TEST(DsanBugZoo, ReorderedUnpackIsAGhostReadBeforeUnpack) {
  // Slide one unpack launch after its own shard's boundary launch: a
  // same-actor reordering, so not a race — but the boundary read of those
  // ghost slots is no longer ordered after the scatter that fills them.
  dsan::Trace trace = record_run(PartitionGrid::along(3, 2));
  const std::size_t bi = find_event(trace, [](const dsan::Event& e) {
    return e.kind == dsan::EventKind::Kernel && e.site == "dslash-boundary r0";
  });
  ASSERT_LT(bi, trace.size());
  const std::size_t ui = find_event(trace, [](const dsan::Event& e) {
    return e.kind == dsan::EventKind::Unpack && e.actor == 0;
  });
  ASSERT_LT(ui, bi);
  const std::string unpack_site = trace.events[ui].site;
  std::rotate(trace.events.begin() + static_cast<std::ptrdiff_t>(ui),
              trace.events.begin() + static_cast<std::ptrdiff_t>(ui) + 1,
              trace.events.begin() + static_cast<std::ptrdiff_t>(bi) + 1);

  const ksan::SanitizerReport hb = dsan::check_happens_before(trace, "zoo");
  EXPECT_GT(hb.count(ksan::Category::GhostReadBeforeUnpack), 0u) << hb.summary();
  EXPECT_TRUE(note_contains(hb, unpack_site)) << hb.summary();
  EXPECT_TRUE(note_contains(hb, "dslash-boundary r0")) << hb.summary();

  // The protocol checker sees the same defect as its advisory shape lint.
  const ksan::SanitizerReport proto = dsan::check_protocol(trace, "zoo");
  EXPECT_GT(proto.count(ksan::Category::BoundaryBeforeUnpack), 0u) << proto.summary();
  EXPECT_TRUE(note_contains(proto, "dslash-boundary r0")) << proto.summary();
}

TEST(DsanBugZoo, RepackDuringRetransmitIsWireBufferReuse) {
  // Clone the pack of the corrupted message to just after its round-2
  // retransmission: the repack overwrites a wire whose transmission has not
  // resolved yet (its delivery is still in flight) — the in-flight-DMA bug.
  const FaultPlan plan = one_corruption_plan();
  dsan::Trace trace = record_run(PartitionGrid::along(3, 2), &plan);
  const std::size_t si = find_event(
      trace, [](const dsan::Event& e) { return e.kind == dsan::EventKind::Send && e.round > 1; });
  ASSERT_LT(si, trace.size());
  ASSERT_FALSE(trace.events[si].reads.empty());
  const dsan::MemSpan payload = trace.events[si].reads.front();
  const std::size_t pi = find_event(trace, [&payload](const dsan::Event& e) {
    return e.kind == dsan::EventKind::Pack &&
           std::any_of(e.writes.begin(), e.writes.end(),
                       [&payload](const dsan::MemSpan& w) { return w.overlaps(payload); });
  });
  ASSERT_LT(pi, trace.size());
  trace.events.insert(trace.events.begin() + static_cast<std::ptrdiff_t>(si) + 1,
                      trace.events[pi]);

  const ksan::SanitizerReport rep = dsan::check_happens_before(trace, "zoo");
  EXPECT_GT(rep.count(ksan::Category::WireBufferReuse), 0u) << rep.summary();
  EXPECT_TRUE(note_contains(rep, "repack of wire for site 'halo-exchange r0->r1"))
      << rep.summary();
  EXPECT_TRUE(note_contains(rep, "still in flight")) << rep.summary();
}

TEST(DsanBugZoo, WaitCycleAndStarvationAreScheduleDeadlocks) {
  // A synthetic wait graph the greedy schedulers can never emit: two fabric
  // transmissions each blocked on the port the other holds, plus one link
  // message the schedule ended without ever granting a port.
  dsan::Trace trace;
  dsan::Event a;
  a.kind = dsan::EventKind::WireSchedule;
  a.site = "fabric-exchange r0->r2 n0->n1";
  a.sched = 0;
  a.waits_on = {1};
  dsan::Event b = a;
  b.site = "fabric-exchange r2->r0 n1->n0";
  b.sched = 1;
  b.waits_on = {0};
  dsan::Event c;
  c.kind = dsan::EventKind::WireSchedule;
  c.site = "halo-exchange r1->r3";
  c.sched = 2;
  c.never_started = true;
  trace.events = {a, b, c};

  const ksan::SanitizerReport rep = dsan::check_schedule(trace, "zoo");
  EXPECT_GE(rep.count(ksan::Category::ScheduleDeadlock), 2u) << rep.summary();
  EXPECT_TRUE(note_contains(rep, "circular wait")) << rep.summary();
  EXPECT_TRUE(note_contains(rep, "fabric-exchange r0->r2 n0->n1")) << rep.summary();
  EXPECT_TRUE(note_contains(rep, "site 'halo-exchange r1->r3': starved")) << rep.summary();
}

TEST(DsanBugZoo, ErasedVerdictOnARetransmitIsChecksumSkipped) {
  const FaultPlan plan = one_corruption_plan();
  dsan::Trace trace = record_run(PartitionGrid::along(3, 2), &plan);
  const std::size_t ri = find_event(
      trace, [](const dsan::Event& e) { return e.kind == dsan::EventKind::Recv && e.round > 1; });
  ASSERT_LT(ri, trace.size());
  const std::uint64_t msg = trace.events[ri].msg;
  const std::string site = trace.events[ri].site;
  std::erase_if(trace.events, [msg](const dsan::Event& e) {
    return e.kind == dsan::EventKind::ChecksumVerdict && e.msg == msg;
  });

  const ksan::SanitizerReport rep = dsan::check_protocol(trace, "zoo");
  EXPECT_GT(rep.count(ksan::Category::ChecksumSkipped), 0u) << rep.summary();
  EXPECT_TRUE(note_contains(
      rep, "site '" + site + "': retransmitted delivery accepted without a checksum verdict"))
      << rep.summary();
}

TEST(DsanBugZoo, StrippedAggregationIsAnUnaggregatedFramesLint) {
  dsan::Trace trace =
      record_run(PartitionGrid{.devices = {1, 1, 2, 2}}, nullptr, gpusim::cluster(2, 2));
  const std::size_t si = find_event(trace, [](const dsan::Event& e) {
    return e.kind == dsan::EventKind::Send && e.src_node != e.dst_node;
  });
  ASSERT_LT(si, trace.size());
  trace.events[si].aggregated = false;
  const std::string site = trace.events[si].site;

  const ksan::SanitizerReport rep = dsan::check_protocol(trace, "zoo");
  EXPECT_GT(rep.count(ksan::Category::UnaggregatedFrames), 0u) << rep.summary();
  EXPECT_TRUE(note_contains(rep, "site '" + site + "': fabric crossing without frame aggregation"))
      << rep.summary();
}

TEST(DsanBugZoo, CheckpointWithAMessageInFlightIsCheckpointInWindow) {
  // Recorded live (not mutated): a snapshot taken between a send and its
  // delivery is exactly the inconsistent-cut bug the lint exists for.
  dsan::ScopedRecorder sr;
  std::vector<double> payload(16);
  const std::uint64_t msg =
      sr.rec.send(0, 1, "halo-exchange r0->r1", /*round=*/1,
                  dsan::span_of(payload.data(), payload.size()),
                  /*dropped=*/false, /*aggregated=*/false);
  sr.rec.checkpoint(/*iteration=*/5, "mid-flight snapshot");
  sr.rec.recv(msg, /*delivered=*/true);

  const ksan::SanitizerReport rep = dsan::check_protocol(sr.rec.trace(), "zoo");
  EXPECT_GT(rep.count(ksan::Category::CheckpointInWindow), 0u) << rep.summary();
  EXPECT_TRUE(note_contains(
      rep, "checkpoint with site 'halo-exchange r0->r1' in flight at iteration 5"))
      << rep.summary();

  // The pairing itself is sound — only the snapshot placement is not.
  EXPECT_TRUE(dsan::check_messages(sr.rec.trace(), "zoo").clean());
}

TEST(DsanBugZoo, ParticipationBetweenRejoinAndResyncFlags) {
  // A rejoined rank computes on a stale (or empty) replica until its resync
  // declares the re-replicated state consistent — any pack/kernel/send in
  // between is the RejoinBeforeResync defect.  A rejoin with no resync at
  // all flags too.
  dsan::ScopedRecorder sr;
  sr.rec.rejoin(1, "device r1 healed");
  sr.rec.kernel(1, "dslash-interior r1");
  sr.rec.resync(1, /*msg=*/0, "snapshot replay");
  sr.rec.rejoin(2, "device r2 healed");  // never resynced

  const ksan::SanitizerReport rep = dsan::check_protocol(sr.rec.trace(), "zoo");
  EXPECT_GE(rep.count(ksan::Category::RejoinBeforeResync), 2u) << rep.summary();
  EXPECT_TRUE(note_contains(
      rep, "site 'dslash-interior r1': rejoined actor r1 participated before its resync"))
      << rep.summary();
  EXPECT_TRUE(note_contains(rep, "rejoin of actor r2 has no resync on record"))
      << rep.summary();
}

TEST(DsanBugZoo, ResyncOnAnUnverifiedTransferIsAStaleReplicaRead) {
  // A resync that names its re-replication transfer must see that transfer's
  // *passing* checksum verdict first — marking the replica live on an
  // unverified (here: failed) payload reads a stale shard.
  dsan::ScopedRecorder sr;
  std::vector<double> slab(32);
  const std::uint64_t msg =
      sr.rec.send(0, 1, "rereplicate r0->r1", /*round=*/1,
                  dsan::span_of(slab.data(), slab.size()),
                  /*dropped=*/false, /*aggregated=*/false);
  sr.rec.checksum(msg, /*ok=*/false);
  sr.rec.recv(msg, /*delivered=*/false);
  sr.rec.rejoin(1, "spare adopted");
  sr.rec.resync(1, msg, "transfer complete");

  const ksan::SanitizerReport rep = dsan::check_protocol(sr.rec.trace(), "zoo");
  EXPECT_GT(rep.count(ksan::Category::StaleReplicaRead), 0u) << rep.summary();
  EXPECT_TRUE(note_contains(
      rep, "resync of actor r1 before its re-replication transfer verified"))
      << rep.summary();
}

TEST(DsanBugZoo, PromotionWithoutItsAuditIsSnapshotPromotedBeforeAudit) {
  // Async checkpointing may only promote a staged snapshot after the
  // deferred audit of the *same iteration* passed.  An audit of a different
  // iteration does not cover it.
  dsan::ScopedRecorder sr;
  sr.rec.checkpoint(/*iteration=*/4, "staged");
  sr.rec.snapshot_audit(4, "true residual ok");
  sr.rec.snapshot_promote(4, "durable");   // properly audited: no finding
  sr.rec.checkpoint(/*iteration=*/8, "staged");
  sr.rec.snapshot_promote(8, "durable");   // promoted with no audit: flags

  const ksan::SanitizerReport rep = dsan::check_protocol(sr.rec.trace(), "zoo");
  EXPECT_EQ(rep.count(ksan::Category::SnapshotPromotedBeforeAudit), 1u) << rep.summary();
  EXPECT_TRUE(note_contains(rep, "staged snapshot promoted with no passing audit at iteration 8"))
      << rep.summary();
}

TEST(DsanClean, FullElasticRecoverySequenceChecksClean) {
  // The legit protocol order — re-replication transfer sent, checksummed,
  // delivered; rejoin; resync naming the verified transfer; staged snapshot
  // audited then promoted — must satisfy the protocol and pairing checkers.
  dsan::ScopedRecorder sr;
  std::vector<double> slab(32);
  const std::uint64_t msg =
      sr.rec.send(0, 1, "rereplicate r0->r1", /*round=*/1,
                  dsan::span_of(slab.data(), slab.size()),
                  /*dropped=*/false, /*aggregated=*/false);
  sr.rec.checksum(msg, /*ok=*/true);
  sr.rec.recv(msg, /*delivered=*/true);
  sr.rec.rejoin(1, "device r1 healed");
  sr.rec.resync(1, msg, "replica verified");
  sr.rec.checkpoint(/*iteration=*/6, "staged");
  sr.rec.snapshot_audit(6, "true residual ok");
  sr.rec.snapshot_promote(6, "durable");

  EXPECT_TRUE(dsan::check_protocol(sr.rec.trace(), "elastic").clean());
  EXPECT_TRUE(dsan::check_messages(sr.rec.trace(), "elastic").clean());
}

}  // namespace
}  // namespace milc::multidev
