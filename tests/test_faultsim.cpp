// faultsim: deterministic fault injection through the minisycl fault sites —
// allocation refusal, launch rejection, sticky faults, watchdog hangs and
// ECC-like bit flips — and the SYCL 2020 asynchronous-error surface.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "faultsim/faultsim.hpp"
#include "minisycl/queue.hpp"
#include "minisycl/usm.hpp"

namespace minisycl {
namespace {

using faultsim::AllocFailMode;
using faultsim::FaultKind;
using faultsim::FaultPlan;
using faultsim::Injector;
using faultsim::ScheduledFault;
using faultsim::ScopedFaultInjection;

struct TinyKernel {
  static constexpr int kPhases = 1;
  double* out;
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    const double v = lane.load(&out[lane.global_id()]);
    lane.flops(2);
    lane.store(&out[lane.global_id()], v + 1.0);
  }
};

LaunchSpec tiny_spec() { return LaunchSpec{1024, 128, 0, 1, {}}; }

/// Run one submission and return its stats.
gpusim::KernelStats submit_once(queue& q, std::vector<double>& buf,
                                const std::string& name) {
  return q.submit(tiny_spec(), TinyKernel{buf.data()}, name);
}

TEST(FaultSim, OffByDefault) {
  ASSERT_EQ(Injector::current(), nullptr);
  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::functional);
  const auto stats = submit_once(q, buf, "plain");
  EXPECT_TRUE(stats.fault.empty());
  EXPECT_EQ(q.pending_async_errors(), 0u);
  EXPECT_DOUBLE_EQ(buf[0], 1.0);
}

TEST(FaultSim, ScopedInstallUninstalls) {
  {
    ScopedFaultInjection fi(FaultPlan{});
    EXPECT_NE(Injector::current(), nullptr);
  }
  EXPECT_EQ(Injector::current(), nullptr);
}

TEST(FaultSim, DrawsAreDeterministicAcrossRuns) {
  auto run = [] {
    FaultPlan plan;
    plan.seed = 42;
    plan.p_launch_fail = 0.3;
    plan.p_sticky = 0.2;
    ScopedFaultInjection fi(plan);
    std::vector<double> buf(1024, 0.0);
    queue q(ExecMode::functional);
    for (int i = 0; i < 50; ++i) (void)submit_once(q, buf, "det");
    return fi.injector().log();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_FALSE(a.empty()) << "plan with p=0.3 over 50 launches must fire";
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].site, b[i].site);
    EXPECT_EQ(a[i].occurrence, b[i].occurrence);
    EXPECT_EQ(a[i].detail, b[i].detail);
  }
}

TEST(FaultSim, AllocFailReturnsNullThenRecovers) {
  FaultPlan plan;
  plan.alloc_fail_mode = AllocFailMode::return_null;
  plan.schedule.push_back(ScheduledFault{FaultKind::alloc_fail, 0, 1, {}});
  ScopedFaultInjection fi(plan);

  queue q(ExecMode::functional);
  double* p = malloc_device<double>(16, q);
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(fi.injector().injected(FaultKind::alloc_fail), 1u);

  // The schedule covered occurrence 0 only: the retry succeeds.
  double* p2 = malloc_device<double>(16, q);
  ASSERT_NE(p2, nullptr);
  minisycl::free(p2, q);
}

TEST(FaultSim, AllocFailCanThrowBadAlloc) {
  FaultPlan plan;
  plan.alloc_fail_mode = AllocFailMode::throw_bad_alloc;
  plan.schedule.push_back(ScheduledFault{FaultKind::alloc_fail, 0, 1, {}});
  ScopedFaultInjection fi(plan);

  queue q(ExecMode::functional);
  EXPECT_THROW((void)malloc_device<double>(16, q), std::bad_alloc);
}

TEST(FaultSim, AllocScheduleHonoursItsSiteFilter) {
  // Allocations consult the site "malloc_device": a filter naming another
  // site never fires, one matching it does.
  queue q(ExecMode::functional);
  {
    FaultPlan plan;
    plan.schedule.push_back(ScheduledFault{FaultKind::alloc_fail, 0, 1, "halo-pack"});
    ScopedFaultInjection fi(plan);
    double* p = malloc_device<double>(16, q);
    ASSERT_NE(p, nullptr);
    minisycl::free(p, q);
    EXPECT_EQ(fi.injector().injected(FaultKind::alloc_fail), 0u);
  }
  {
    FaultPlan plan;
    plan.schedule.push_back(ScheduledFault{FaultKind::alloc_fail, 0, 1, "malloc"});
    ScopedFaultInjection fi(plan);
    EXPECT_EQ(malloc_device<double>(16, q), nullptr);
    ASSERT_EQ(fi.injector().injected(FaultKind::alloc_fail), 1u);
    EXPECT_EQ(fi.injector().log()[0].site, "malloc_device");
  }
}

TEST(FaultSim, InjectedLaunchFailureSuppressesTheKernel) {
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::launch_fail, 0, 1, {}});
  ScopedFaultInjection fi(plan);

  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::functional);
  const auto stats = submit_once(q, buf, "victim");
  EXPECT_EQ(stats.fault, "launch-fail");
  EXPECT_DOUBLE_EQ(buf[0], 0.0) << "a failed launch must have no side effects";
  EXPECT_EQ(q.pending_async_errors(), 1u);

  try {
    q.wait_and_throw();
    FAIL() << "wait_and_throw must rethrow without a handler";
  } catch (const exception& e) {
    EXPECT_EQ(e.code(), errc::kernel_launch);
    EXPECT_NE(std::string(e.what()).find("victim"), std::string::npos) << e.what();
  }
  EXPECT_EQ(q.pending_async_errors(), 0u);
}

TEST(FaultSim, StickyFaultClearsAfterBurst) {
  FaultPlan plan;
  plan.p_sticky = 1.0;  // every launch wants to stick...
  plan.sticky_burst = 2;  // ...but a site clears after 2 consecutive failures
  ScopedFaultInjection fi(plan);

  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::functional, QueueOrder::in_order, gpusim::a100(), [](exception_list) {});
  const auto a = submit_once(q, buf, "sticky");
  const auto b = submit_once(q, buf, "sticky");
  const auto c = submit_once(q, buf, "sticky");
  EXPECT_EQ(a.fault, "sticky-fault");
  EXPECT_EQ(b.fault, "sticky-fault");
  EXPECT_TRUE(c.fault.empty()) << "bounded retry must get past a transient fault";
  EXPECT_DOUBLE_EQ(buf[0], 1.0);  // only the third launch ran
  q.wait_and_throw();  // handler swallows the two buffered errors
}

TEST(FaultSim, InjectedHangChargesTheWatchdog) {
  FaultPlan plan;
  plan.watchdog_timeout_us = 1000.0;
  plan.schedule.push_back(ScheduledFault{FaultKind::hang, 0, 1, {}});
  ScopedFaultInjection fi(plan);

  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::profiled, QueueOrder::in_order);
  const auto stats = submit_once(q, buf, "hung");
  EXPECT_EQ(stats.fault, "hang");
  EXPECT_NEAR(q.sim_time_us(), 1000.0 + q.launch_overhead_us(), 1e-9)
      << "a hang must cost the watchdog timeout on the simulated timeline";
  try {
    q.wait_and_throw();
    FAIL() << "the watchdog expiry must surface asynchronously";
  } catch (const exception& e) {
    EXPECT_EQ(e.code(), errc::watchdog_timeout);
  }
}

TEST(FaultSim, SlowKernelIsKilledByTheWatchdog) {
  FaultPlan plan;
  plan.watchdog_timeout_us = 1e-9;  // below any real simulated duration
  ScopedFaultInjection fi(plan);

  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::profiled, QueueOrder::in_order);
  const auto stats = submit_once(q, buf, "slow");
  EXPECT_EQ(stats.fault, "hang");
  EXPECT_EQ(fi.injector().injected(FaultKind::hang), 1u);
  // Logged at the occurrence a ScheduledFault would replay: the site's first.
  ASSERT_EQ(fi.injector().log().size(), 1u);
  EXPECT_EQ(fi.injector().log()[0].occurrence, 0u);
}

TEST(FaultSim, BitFlipChangesExactlyOneBitOfARegisteredRegion) {
  FaultPlan plan;
  plan.seed = 7;
  plan.schedule.push_back(ScheduledFault{FaultKind::bit_flip, 0, 1, {}});
  ScopedFaultInjection fi(plan);

  std::vector<double> buf(1024, 0.0);
  const std::vector<double> before = buf;
  fi.injector().set_corruption_targets(
      {{reinterpret_cast<std::uint64_t>(buf.data()), buf.size() * sizeof(double)}});

  queue q(ExecMode::functional);
  const auto stats = submit_once(q, buf, "flip");
  EXPECT_TRUE(stats.fault.empty()) << "corruption is silent — no launch error";
  EXPECT_EQ(q.pending_async_errors(), 0u);
  EXPECT_EQ(fi.injector().injected(FaultKind::bit_flip), 1u);

  // The kernel added 1.0 everywhere; exactly one byte may then differ from
  // that expectation, and by exactly one bit.
  const auto* got = reinterpret_cast<const unsigned char*>(buf.data());
  std::vector<double> expect(before);
  for (double& v : expect) v += 1.0;
  const auto* want = reinterpret_cast<const unsigned char*>(expect.data());
  int diff_bytes = 0;
  int diff_bits = 0;
  for (std::size_t i = 0; i < buf.size() * sizeof(double); ++i) {
    if (got[i] != want[i]) {
      ++diff_bytes;
      unsigned x = got[i] ^ want[i];
      while (x != 0) {
        diff_bits += static_cast<int>(x & 1u);
        x >>= 1;
      }
    }
  }
  EXPECT_EQ(diff_bytes, 1);
  EXPECT_EQ(diff_bits, 1);
  fi.injector().set_corruption_targets({});
}

TEST(FaultSim, BitFlipLogNamesRegionsByIndexNotAddress) {
  // One plan over two sets of fields at different heap addresses: the seeded
  // fault log must not depend on where the fields live.
  FaultPlan plan;
  plan.seed = 7;
  plan.schedule.push_back(ScheduledFault{FaultKind::bit_flip, 0, 4, {}});
  auto flip_details = [&](std::vector<double>& a, std::vector<double>& b) {
    ScopedFaultInjection fi(plan);
    fi.injector().set_corruption_targets(
        {{reinterpret_cast<std::uint64_t>(a.data()), a.size() * sizeof(double)},
         {reinterpret_cast<std::uint64_t>(b.data()), b.size() * sizeof(double)}});
    queue q(ExecMode::functional);
    for (int i = 0; i < 4; ++i) (void)submit_once(q, a, "flip");
    std::vector<std::string> details;
    for (const faultsim::FaultEvent& e : fi.injector().log()) details.push_back(e.detail);
    fi.injector().set_corruption_targets({});
    return details;
  };

  std::vector<double> a1(1024, 0.0), b1(512, 0.0), a2(1024, 0.0), b2(512, 0.0);
  ASSERT_NE(a1.data(), a2.data());
  const std::vector<std::string> first = flip_details(a1, b1);
  const std::vector<std::string> second = flip_details(a2, b2);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first, second);
  for (const std::string& d : first) {
    EXPECT_NE(d.find(" in region "), std::string::npos) << d;
    EXPECT_EQ(d.find("0x"), std::string::npos) << d;
  }
}

TEST(FaultSim, BitFlipWithoutTargetsIsInert) {
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::bit_flip, 0, 4, {}});
  ScopedFaultInjection fi(plan);

  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::functional);
  (void)submit_once(q, buf, "no-targets");
  EXPECT_EQ(fi.injector().injected(FaultKind::bit_flip), 0u);
}

TEST(FaultSim, ScheduleSiteFilterSelectsTheKernel) {
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::launch_fail, 0, 100, "3LP"});
  ScopedFaultInjection fi(plan);

  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::functional, QueueOrder::in_order, gpusim::a100(), [](exception_list) {});
  const auto a = submit_once(q, buf, "3LP-1 k-major");
  const auto b = submit_once(q, buf, "1LP");
  EXPECT_EQ(a.fault, "launch-fail");
  EXPECT_TRUE(b.fault.empty());
  q.wait_and_throw();
}

TEST(FaultSim, AsyncHandlerReceivesTheWholeBatchInSubmissionOrder) {
  for (const QueueOrder order : {QueueOrder::in_order, QueueOrder::out_of_order}) {
    FaultPlan plan;
    plan.schedule.push_back(ScheduledFault{FaultKind::launch_fail, 0, 1, "first"});
    plan.schedule.push_back(ScheduledFault{FaultKind::hang, 0, 1, "second"});
    ScopedFaultInjection fi(plan);

    std::vector<double> buf(1024, 0.0);
    std::vector<std::string> seen;
    queue q(ExecMode::functional, order, gpusim::a100(),
            [&seen](exception_list errors) {
              for (const std::exception_ptr& ep : errors) {
                try {
                  std::rethrow_exception(ep);
                } catch (const exception& e) {
                  seen.emplace_back(e.what());
                }
              }
            });
    (void)submit_once(q, buf, "first");
    (void)submit_once(q, buf, "second");
    ASSERT_EQ(q.pending_async_errors(), 2u);
    EXPECT_NO_THROW(q.wait_and_throw()) << "a handler absorbs the batch";
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_NE(seen[0].find("first"), std::string::npos);
    EXPECT_NE(seen[1].find("second"), std::string::npos);
    EXPECT_EQ(q.pending_async_errors(), 0u);
  }
}

TEST(FaultSim, LogSinceReturnsOnlyNewEvents) {
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::launch_fail, 0, 2, {}});
  ScopedFaultInjection fi(plan);

  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::functional, QueueOrder::in_order, gpusim::a100(), [](exception_list) {});
  (void)submit_once(q, buf, "k");
  const std::size_t mark = fi.injector().log().size();
  (void)submit_once(q, buf, "k");
  const auto since = fi.injector().log_since(mark);
  ASSERT_EQ(since.size(), 1u);
  EXPECT_EQ(since[0].occurrence, 1u);
  EXPECT_EQ(fi.injector().injected_total(), 2u);
  q.wait_and_throw();
}

TEST(FaultSim, ScheduledStickyHonoursItsRepeatCount) {
  // A *scheduled* sticky fault fires for exactly `repeat` occurrences — the
  // probabilistic sticky_burst clearing must not cut it short, or retry
  // ladders can never be driven past their first rung deterministically.
  FaultPlan plan;
  plan.sticky_burst = 2;  // would clear a probabilistic sticky after 2
  plan.schedule.push_back(ScheduledFault{FaultKind::sticky_fault, 0, 5, {}});
  ScopedFaultInjection fi(plan);

  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::functional, QueueOrder::in_order, gpusim::a100(), [](exception_list) {});
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(submit_once(q, buf, "scheduled-sticky").fault, "sticky-fault") << i;
  }
  EXPECT_TRUE(submit_once(q, buf, "scheduled-sticky").fault.empty());
  EXPECT_EQ(fi.injector().injected(FaultKind::sticky_fault), 5u);
  q.wait_and_throw();
}

TEST(FaultSim, MessageVerdictsAreDeterministicAcrossRuns) {
  auto run = [] {
    FaultPlan plan;
    plan.seed = 404;
    plan.p_msg_drop = 0.25;
    plan.p_msg_corrupt = 0.25;
    plan.p_msg_delay = 0.25;
    ScopedFaultInjection fi(plan);
    std::vector<faultsim::LinkVerdict> verdicts;
    for (int i = 0; i < 64; ++i) {
      verdicts.push_back(fi.injector().on_message("halo-exchange r0->r1", 4096));
    }
    return verdicts;
  };
  const auto a = run();
  const auto b = run();
  bool any = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dropped, b[i].dropped);
    EXPECT_EQ(a[i].corrupted, b[i].corrupted);
    EXPECT_EQ(a[i].delayed, b[i].delayed);
    EXPECT_EQ(a[i].corrupt_key, b[i].corrupt_key);
    any = any || a[i].dropped || a[i].corrupted || a[i].delayed;
  }
  EXPECT_TRUE(any) << "the storm must actually fire over 64 messages";
}

TEST(FaultSim, DroppedMessageIsNeitherCorruptedNorDelayed) {
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::msg_drop, 0, 1, {}});
  plan.schedule.push_back(ScheduledFault{FaultKind::msg_corrupt, 0, 1, {}});
  plan.schedule.push_back(ScheduledFault{FaultKind::msg_delay, 0, 1, {}});
  ScopedFaultInjection fi(plan);

  const auto v = fi.injector().on_message("halo-exchange r0->r1", 1024);
  EXPECT_TRUE(v.dropped) << "a lost message never arrives";
  EXPECT_FALSE(v.corrupted);
  EXPECT_FALSE(v.delayed);
  EXPECT_EQ(fi.injector().injected(FaultKind::msg_drop), 1u);
  EXPECT_EQ(fi.injector().injected(FaultKind::msg_corrupt), 0u);
}

TEST(FaultSim, MessageSiteFilterSelectsOneLink) {
  // The schedule grammar addresses multidev wire names directly: a filter of
  // "r0->r1" picks out one direction of one link and leaves the rest alone.
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::msg_corrupt, 0, 100, "r0->r1"});
  ScopedFaultInjection fi(plan);

  const auto hit = fi.injector().on_message("halo-exchange r0->r1", 512);
  const auto reverse = fi.injector().on_message("halo-exchange r1->r0", 512);
  const auto other = fi.injector().on_message("halo-exchange r2->r3", 512);
  EXPECT_TRUE(hit.corrupted);
  EXPECT_NE(hit.corrupt_key, 0u);
  EXPECT_FALSE(reverse.corrupted);
  EXPECT_FALSE(other.corrupted);
}

TEST(FaultSim, DelayedMessageCarriesThePlannedPenalty) {
  FaultPlan plan;
  plan.delay_latency_us = 17.0;
  plan.delay_bw_factor = 3.0;
  plan.schedule.push_back(ScheduledFault{FaultKind::msg_delay, 0, 1, {}});
  ScopedFaultInjection fi(plan);

  const auto v = fi.injector().on_message("halo-exchange r0->r1", 2048);
  EXPECT_TRUE(v.delayed);
  EXPECT_FALSE(v.dropped);
  EXPECT_DOUBLE_EQ(v.extra_latency_us, 17.0);
  EXPECT_DOUBLE_EQ(v.bw_factor, 3.0);
}

TEST(FaultSim, FlipBitIsDeterministicAndFlipsExactlyOneBit) {
  std::vector<unsigned char> a(256, 0xA5);
  std::vector<unsigned char> b(256, 0xA5);
  faultsim::flip_bit(a.data(), a.size(), /*key=*/0xfeedULL);
  faultsim::flip_bit(b.data(), b.size(), /*key=*/0xfeedULL);
  EXPECT_EQ(a, b) << "the same key must flip the same bit";

  int diff_bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    unsigned x = a[i] ^ 0xA5u;
    while (x != 0) {
      diff_bits += static_cast<int>(x & 1u);
      x >>= 1;
    }
  }
  EXPECT_EQ(diff_bits, 1);

  // Flipping again with the same key restores the original payload — the
  // property the checksum-retry path relies on for idempotent re-delivery.
  faultsim::flip_bit(a.data(), a.size(), /*key=*/0xfeedULL);
  EXPECT_EQ(a, std::vector<unsigned char>(256, 0xA5));
}

TEST(FaultSim, DeviceLossFiresOnItsScheduledOccurrence) {
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::device_loss, 2, 1, "device r1"});
  ScopedFaultInjection fi(plan);

  // Occurrences 0 and 1 pass; occurrence 2 is the loss.  A different site
  // keeps its own occurrence counter and never fires.
  EXPECT_FALSE(fi.injector().on_device_check("device r1 @ 1x1x1x2"));
  EXPECT_FALSE(fi.injector().on_device_check("device r1 @ 1x1x1x2"));
  EXPECT_TRUE(fi.injector().on_device_check("device r1 @ 1x1x1x2"));
  EXPECT_FALSE(fi.injector().on_device_check("device r0 @ 1x1x1x2"));
  EXPECT_EQ(fi.injector().injected(FaultKind::device_loss), 1u);
}

TEST(FaultSim, HealFiresOnItsScheduledOccurrence) {
  // heal is the inverse of device_loss: a scheduled entry brings a named
  // resource back on exactly the index-th consult of its `heal/*` site.
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::heal, 1, 1, "heal/device r1"});
  ScopedFaultInjection fi(plan);

  EXPECT_FALSE(fi.injector().on_heal_check("heal/device r1 @ 1x1x1x2"));
  EXPECT_TRUE(fi.injector().on_heal_check("heal/device r1 @ 1x1x1x2"));
  EXPECT_FALSE(fi.injector().on_heal_check("heal/device r1 @ 1x1x1x2"))
      << "repeat=1 covers exactly one occurrence";
  EXPECT_EQ(fi.injector().injected(FaultKind::heal), 1u);
}

TEST(FaultSim, HealSiteGrammarDistinguishesDevicesAndNodes) {
  // The `heal/*` grammar addresses one resource per site: a device filter
  // must not return a node (or a different device), and each site keeps its
  // own occurrence counter.
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::heal, 0, 1, "heal/device d3"});
  plan.schedule.push_back(ScheduledFault{FaultKind::heal, 0, 1, "heal/node n1"});
  ScopedFaultInjection fi(plan);

  EXPECT_FALSE(fi.injector().on_heal_check("heal/device d0"));
  EXPECT_FALSE(fi.injector().on_heal_check("heal/node n0"));
  EXPECT_TRUE(fi.injector().on_heal_check("heal/device d3"));
  EXPECT_TRUE(fi.injector().on_heal_check("heal/node n1"));
  EXPECT_EQ(fi.injector().injected(FaultKind::heal), 2u);
}

TEST(FaultSim, HealDrawsAreDeterministicAcrossRuns) {
  auto run = [] {
    FaultPlan plan;
    plan.seed = 99;
    plan.p_heal = 0.3;
    ScopedFaultInjection fi(plan);
    for (int i = 0; i < 50; ++i) {
      (void)fi.injector().on_heal_check("heal/device r0 @ 1x1x1x2");
    }
    return fi.injector().log();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_FALSE(a.empty()) << "p_heal=0.3 over 50 consults must fire";
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].site, b[i].site);
    EXPECT_EQ(a[i].occurrence, b[i].occurrence);
    EXPECT_EQ(a[i].detail, b[i].detail);
  }
}

TEST(FaultSim, HealConsultsDoNotPerturbLossDraws) {
  // heal has its own draw stream (heal_counter_): a replay that adds heal
  // consults — e.g. a rejoin probe loop — must see the *same* device-loss
  // verdicts as a replay without them, or kill-then-heal scenarios would not
  // reproduce from their seed.
  auto losses = [](bool interleave_heals) {
    FaultPlan plan;
    plan.seed = 2024;
    plan.p_device_loss = 0.2;
    plan.p_heal = 0.5;
    ScopedFaultInjection fi(plan);
    std::vector<bool> verdicts;
    for (int i = 0; i < 40; ++i) {
      if (interleave_heals) (void)fi.injector().on_heal_check("heal/device r1");
      verdicts.push_back(fi.injector().on_device_check("device r1 @ 1x1x1x2"));
    }
    return verdicts;
  };
  const auto without = losses(false);
  const auto with = losses(true);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(without[i], with[i]) << "loss draw " << i << " shifted by heal consults";
  }
}

TEST(FaultSim, WaitDoesNotProcessAsyncErrors) {
  FaultPlan plan;
  plan.schedule.push_back(ScheduledFault{FaultKind::launch_fail, 0, 1, {}});
  ScopedFaultInjection fi(plan);

  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::functional);
  (void)submit_once(q, buf, "k");
  EXPECT_NO_THROW(q.wait());  // SYCL: wait() leaves the async list untouched
  EXPECT_EQ(q.pending_async_errors(), 1u);
  EXPECT_THROW(q.wait_and_throw(), exception);
}

}  // namespace
}  // namespace minisycl
