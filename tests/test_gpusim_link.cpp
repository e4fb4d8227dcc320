// test_gpusim_link.cpp — the NVLink tier: wire-time arithmetic and the
// port-serialised exchange schedule of a one-node topology.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "faultsim/faultsim.hpp"
#include "gpusim/fabric.hpp"

// LinkMessage is an aggregate whose trailing members (site, fault flags,
// start/done times) are outputs of simulate_topology_exchange; tests
// designated-initialise only the inputs.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace gpusim {
namespace {

TEST(LinkModel, WireTimeIsLatencyPlusBytesOverBandwidth) {
  const Interconnect& m = kInterconnect;
  // 300 GB/s = 300e3 bytes/us: 3 MB takes 10 us on the wire plus latency.
  EXPECT_DOUBLE_EQ(nvlink_wire_time_us(3'000'000),
                   m.nvlink_latency_us + 3'000'000 / (m.nvlink_bw_gbs * 1e3));
  // Zero payload still pays the latency.
  EXPECT_DOUBLE_EQ(nvlink_wire_time_us(0), m.nvlink_latency_us);
}

TEST(SimulateExchange, DistinctPairsOverlapPerfectly) {
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 1, .bytes = 1'000'000},
      {.src = 2, .dst = 3, .bytes = 1'000'000},
  };
  const FabricExchangeReport rep = simulate_topology_exchange(cluster(1, 4), msgs);
  const double one = nvlink_wire_time_us(1'000'000);
  EXPECT_DOUBLE_EQ(msgs[0].done_us, one);
  EXPECT_DOUBLE_EQ(msgs[1].done_us, one);  // no shared port: fully parallel
  EXPECT_DOUBLE_EQ(rep.finish_us, one);
  EXPECT_EQ(rep.intra_bytes, 2'000'000);
}

TEST(SimulateExchange, SharedEgressPortSerialises) {
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 1, .bytes = 1'000'000},
      {.src = 0, .dst = 2, .bytes = 1'000'000},
  };
  simulate_topology_exchange(cluster(1, 4), msgs);
  const double one = nvlink_wire_time_us(1'000'000);
  // Device 0 owns one egress port: the second message starts when the
  // first clears it (start = done of the first, not t = 0).
  EXPECT_DOUBLE_EQ(msgs[0].start_us, 0.0);
  EXPECT_DOUBLE_EQ(msgs[1].start_us, one);
  EXPECT_DOUBLE_EQ(msgs[1].done_us, 2 * one);
}

TEST(SimulateExchange, SharedIngressPortSerialises) {
  std::vector<LinkMessage> msgs = {
      {.src = 1, .dst = 0, .bytes = 1'000'000},
      {.src = 2, .dst = 0, .bytes = 1'000'000},
  };
  const FabricExchangeReport rep = simulate_topology_exchange(cluster(1, 4), msgs);
  const double one = nvlink_wire_time_us(1'000'000);
  EXPECT_DOUBLE_EQ(rep.arrival_us[0], 2 * one);
}

TEST(SimulateExchange, DepartureTimesAreHonoured) {
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 1, .bytes = 1'000'000, .depart_us = 50.0},
  };
  const FabricExchangeReport rep = simulate_topology_exchange(cluster(1, 2), msgs);
  EXPECT_DOUBLE_EQ(msgs[0].start_us, 50.0);
  EXPECT_DOUBLE_EQ(rep.finish_us, 50.0 + nvlink_wire_time_us(1'000'000));
}

TEST(SimulateExchange, ScheduleIsDeterministic) {
  std::vector<LinkMessage> a = {
      {.src = 0, .dst = 1, .bytes = 500'000},
      {.src = 0, .dst = 2, .bytes = 400'000},
      {.src = 1, .dst = 0, .bytes = 300'000},
      {.src = 2, .dst = 1, .bytes = 200'000, .depart_us = 1.0},
  };
  std::vector<LinkMessage> b = a;
  simulate_topology_exchange(cluster(1, 3), a);
  simulate_topology_exchange(cluster(1, 3), b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].start_us, b[i].start_us);
    EXPECT_DOUBLE_EQ(a[i].done_us, b[i].done_us);
  }
}

TEST(SimulateExchange, DroppedMessageOccupiesPortsButNeverArrives) {
  faultsim::FaultPlan plan;
  plan.schedule.push_back(
      faultsim::ScheduledFault{faultsim::FaultKind::msg_drop, 0, 1, "r0->r1"});
  faultsim::ScopedFaultInjection fi(plan);

  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 1, .bytes = 1'000'000},
      {.src = 0, .dst = 2, .bytes = 1'000'000},
  };
  const FabricExchangeReport rep = simulate_topology_exchange(cluster(1, 4), msgs);
  const double one = nvlink_wire_time_us(1'000'000);

  EXPECT_TRUE(msgs[0].dropped);
  EXPECT_FALSE(msgs[1].dropped);
  EXPECT_EQ(rep.dropped, 1);
  // The lost message still burned device 0's egress port — its sibling had
  // to wait behind it — but it contributes nothing to the arrival horizon.
  EXPECT_DOUBLE_EQ(msgs[1].start_us, one);
  EXPECT_DOUBLE_EQ(rep.arrival_us[1], 0.0) << "nothing was delivered to device 1";
  EXPECT_DOUBLE_EQ(rep.finish_us, msgs[1].done_us);
}

TEST(SimulateExchange, DelayedMessagePaysLatencyAndBandwidthPenalty) {
  faultsim::FaultPlan plan;
  plan.delay_latency_us = 25.0;
  plan.delay_bw_factor = 2.0;
  plan.schedule.push_back(
      faultsim::ScheduledFault{faultsim::FaultKind::msg_delay, 0, 1, "r0->r1"});
  faultsim::ScopedFaultInjection fi(plan);

  std::vector<LinkMessage> msgs = {{.src = 0, .dst = 1, .bytes = 1'000'000}};
  simulate_topology_exchange(cluster(1, 2), msgs);

  EXPECT_TRUE(msgs[0].delayed);
  const double clean = nvlink_wire_time_us(1'000'000);
  // A bw_factor of 2 doubles the transfer term: one extra bytes/bw on top
  // of the clean wire time, plus the latency spike.
  const double extra = 25.0 + 1'000'000 / (kInterconnect.nvlink_bw_gbs * 1e3);
  EXPECT_NEAR(msgs[0].done_us, clean + extra, 1e-9);
}

TEST(SimulateExchange, CorruptedMessageArrivesWithAKey) {
  faultsim::FaultPlan plan;
  plan.seed = 9;
  plan.schedule.push_back(
      faultsim::ScheduledFault{faultsim::FaultKind::msg_corrupt, 0, 1, "r0->r1"});
  faultsim::ScopedFaultInjection fi(plan);

  std::vector<LinkMessage> msgs = {{.src = 0, .dst = 1, .bytes = 1'000'000}};
  const FabricExchangeReport rep = simulate_topology_exchange(cluster(1, 2), msgs);

  EXPECT_TRUE(msgs[0].corrupted);
  EXPECT_NE(msgs[0].corrupt_key, 0u);
  EXPECT_EQ(rep.corrupted, 1);
  // Corruption is a payload event, not a timing event.
  EXPECT_DOUBLE_EQ(msgs[0].done_us, nvlink_wire_time_us(1'000'000));
  EXPECT_DOUBLE_EQ(rep.arrival_us[1], msgs[0].done_us);
}

TEST(SimulateExchange, FaultedScheduleIsDeterministic) {
  auto run = [] {
    faultsim::FaultPlan plan;
    plan.seed = 31;
    plan.p_msg_drop = 0.3;
    plan.p_msg_delay = 0.3;
    faultsim::ScopedFaultInjection fi(plan);
    std::vector<LinkMessage> msgs;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i != j) msgs.push_back({.src = i, .dst = j, .bytes = 250'000});
      }
    }
    simulate_topology_exchange(cluster(1, 4), msgs);
    return msgs;
  };
  const auto a = run();
  const auto b = run();
  int faulted = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dropped, b[i].dropped);
    EXPECT_EQ(a[i].delayed, b[i].delayed);
    EXPECT_DOUBLE_EQ(a[i].done_us, b[i].done_us);
    faulted += (a[i].dropped || a[i].delayed) ? 1 : 0;
  }
  EXPECT_GT(faulted, 0) << "the storm must actually fire over 12 messages";
}

TEST(SimulateExchange, RejectsMalformedMessages) {
  std::vector<LinkMessage> self = {{.src = 1, .dst = 1, .bytes = 8}};
  EXPECT_THROW(simulate_topology_exchange(cluster(1, 2), self), std::invalid_argument);
  std::vector<LinkMessage> range = {{.src = 0, .dst = 5, .bytes = 8}};
  EXPECT_THROW(simulate_topology_exchange(cluster(1, 2), range), std::invalid_argument);
  std::vector<LinkMessage> negative = {{.src = 0, .dst = 1, .bytes = -1}};
  EXPECT_THROW(simulate_topology_exchange(cluster(1, 2), negative), std::invalid_argument);
}

}  // namespace
}  // namespace gpusim
