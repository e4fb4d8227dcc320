// test_fabric.cpp — the inter-node fabric tier: wire-time arithmetic, node
// topology composition, message aggregation framing, the NIC/switch
// contention schedule, and aggregate-level fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "faultsim/faultsim.hpp"
#include "gpusim/fabric.hpp"

// LinkMessage is an aggregate whose trailing members (site, fault flags,
// start/done times) are outputs of the exchange simulator; tests
// designated-initialise only the inputs.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace gpusim {
namespace {

TEST(FabricModel, WireTimeIsLatencyPlusHopsPlusBytesOverBandwidth) {
  const Interconnect& f = kInterconnect;
  // 24 GB/s = 24e3 bytes/us: 240 kB takes 10 us on the wire, plus the NIC
  // latency and two switch hops.
  EXPECT_DOUBLE_EQ(fabric_wire_time_us(240'000),
                   f.nic_latency_us + 2.0 * f.switch_latency_us + 10.0);
  // Zero payload still pays the full latency stack.
  EXPECT_DOUBLE_EQ(fabric_wire_time_us(0), f.nic_latency_us + 2.0 * f.switch_latency_us);
  // The fabric is an order of magnitude slower than NVLink for the same
  // message — the asymmetry the topology-aware partitioner exists for.
  EXPECT_GT(fabric_wire_time_us(1'000'000), nvlink_wire_time_us(1'000'000));
}

TEST(NodeTopology, ClusterComposesContiguousNodeGroups) {
  const NodeTopology topo = cluster(2, 4);
  EXPECT_EQ(topo.total_devices(), 8);
  EXPECT_TRUE(topo.multi_node());
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(3), 0);
  EXPECT_EQ(topo.node_of(4), 1);
  EXPECT_EQ(topo.node_of(7), 1);
  EXPECT_TRUE(topo.same_node(0, 3));
  EXPECT_FALSE(topo.same_node(3, 4));

  EXPECT_FALSE(cluster(1, 8).multi_node());
  EXPECT_THROW((void)cluster(0, 4), std::invalid_argument);
  EXPECT_THROW((void)cluster(2, 0), std::invalid_argument);
}

TEST(Aggregation, CoalescesPerPairInFirstAppearanceOrder) {
  const NodeTopology topo = cluster(2, 2);  // devices {0,1} | {2,3}
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 2, .bytes = 100},
      {.src = 0, .dst = 1, .bytes = 50},  // intra-node: never aggregated
      {.src = 1, .dst = 3, .bytes = 200},
      {.src = 0, .dst = 2, .bytes = 300, .depart_us = 2.0},
      {.src = 2, .dst = 0, .bytes = 400},
  };
  const std::vector<AggregatedMessage> aggs = aggregate_fabric_messages(topo, msgs);
  ASSERT_EQ(aggs.size(), 3u);

  // (0,2) appeared first and carries two frames in input order with
  // contiguous payload offsets.
  EXPECT_EQ(aggs[0].src, 0);
  EXPECT_EQ(aggs[0].dst, 2);
  ASSERT_EQ(aggs[0].frames.size(), 2u);
  EXPECT_EQ(aggs[0].frames[0].msg_index, 0u);
  EXPECT_EQ(aggs[0].frames[0].offset_bytes, 0);
  EXPECT_EQ(aggs[0].frames[0].bytes, 100);
  EXPECT_EQ(aggs[0].frames[1].msg_index, 3u);
  EXPECT_EQ(aggs[0].frames[1].offset_bytes, 100);
  EXPECT_EQ(aggs[0].frames[1].bytes, 300);
  EXPECT_EQ(aggs[0].payload_bytes, 400);
  // The aggregate departs when its latest constituent is packed.
  EXPECT_DOUBLE_EQ(aggs[0].depart_us, 2.0);
  // Wire bytes add one frame header per slab.
  EXPECT_EQ(aggs[0].wire_bytes(), 400 + 2 * kInterconnect.frame_header_bytes);

  EXPECT_EQ(aggs[1].src, 1);
  EXPECT_EQ(aggs[1].dst, 3);
  EXPECT_EQ(aggs[1].payload_bytes, 200);
  EXPECT_EQ(aggs[2].src, 2);
  EXPECT_EQ(aggs[2].dst, 0);
  EXPECT_EQ(aggs[2].payload_bytes, 400);
}

TEST(Aggregation, IntraNodeTrafficYieldsNoAggregates) {
  const NodeTopology topo = cluster(2, 2);
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 1, .bytes = 100},
      {.src = 3, .dst = 2, .bytes = 100},
  };
  EXPECT_TRUE(aggregate_fabric_messages(topo, msgs).empty());
}

// The intra-node messages of a 2x2 cluster are scheduled exactly as on one
// node of four devices.
TEST(TopologyExchange, IntraSubsetMatchesTheLinkSchedule) {
  const NodeTopology topo = cluster(2, 2);
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 1, .bytes = 1'000'000},
      {.src = 2, .dst = 3, .bytes = 1'000'000},
      {.src = 1, .dst = 0, .bytes = 500'000},
  };
  std::vector<LinkMessage> plain = msgs;
  const FabricExchangeReport rep = simulate_topology_exchange(topo, msgs);

  const FabricExchangeReport link_rep = simulate_topology_exchange(cluster(1, 4), plain);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_DOUBLE_EQ(msgs[i].start_us, plain[i].start_us);
    EXPECT_DOUBLE_EQ(msgs[i].done_us, plain[i].done_us);
  }
  EXPECT_EQ(rep.inter_messages, 0);
  EXPECT_EQ(rep.inter_bytes, 0);
  EXPECT_EQ(rep.intra_messages, 3);
  EXPECT_EQ(rep.intra_bytes, 2'500'000);
  EXPECT_DOUBLE_EQ(rep.finish_us, link_rep.finish_us);
}

TEST(TopologyExchange, FabricAndNvlinkAreDisjointAndOverlap) {
  const NodeTopology topo = cluster(2, 2);
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 1, .bytes = 1'000'000},  // NVLink
      {.src = 0, .dst = 2, .bytes = 1'000'000},  // fabric
  };
  const FabricExchangeReport rep = simulate_topology_exchange(topo, msgs);
  const double nv =
      kInterconnect.nvlink_latency_us + 1'000'000 / (kInterconnect.nvlink_bw_gbs * 1e3);
  const double fab = fabric_wire_time_us(1'000'000 + kInterconnect.frame_header_bytes);
  // Different networks: both start at t = 0 even from the same device.
  EXPECT_DOUBLE_EQ(msgs[0].start_us, 0.0);
  EXPECT_DOUBLE_EQ(msgs[1].start_us, 0.0);
  EXPECT_DOUBLE_EQ(msgs[0].done_us, nv);
  EXPECT_DOUBLE_EQ(msgs[1].done_us, fab);
  EXPECT_DOUBLE_EQ(rep.arrival_us[1], nv);
  EXPECT_DOUBLE_EQ(rep.arrival_us[2], fab);
  EXPECT_DOUBLE_EQ(rep.intra_finish_us, nv);
  EXPECT_DOUBLE_EQ(rep.inter_finish_us, fab);
  EXPECT_DOUBLE_EQ(rep.finish_us, std::max(nv, fab));
  EXPECT_EQ(rep.intra_bytes, 1'000'000);
  EXPECT_EQ(rep.inter_bytes, 1'000'000 + kInterconnect.frame_header_bytes);
}

TEST(TopologyExchange, NicEgressHonoursTheInjectionRate) {
  const NodeTopology topo = cluster(3, 1);
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 1, .bytes = 240'000},
      {.src = 0, .dst = 2, .bytes = 240'000},
  };
  const std::int64_t wire_bytes = 240'000 + kInterconnect.frame_header_bytes;
  simulate_topology_exchange(topo, msgs);
  // One NIC on node 0: the second aggregate waits out the injection period
  // (not the full delivery — the pipe can be refilled while the first
  // message is still in flight).
  EXPECT_DOUBLE_EQ(msgs[0].start_us, 0.0);
  EXPECT_DOUBLE_EQ(msgs[1].start_us, wire_bytes / (kInterconnect.injection_rate_gbs * 1e3));
}

TEST(TopologyExchange, NicIngressSerialisesConvergingAggregates) {
  const NodeTopology topo = cluster(3, 1);
  std::vector<LinkMessage> msgs = {
      {.src = 1, .dst = 0, .bytes = 240'000},
      {.src = 2, .dst = 0, .bytes = 240'000},
  };
  const FabricExchangeReport rep = simulate_topology_exchange(topo, msgs);
  // Node 0 owns one NIC ingress: the second delivery queues behind the first.
  EXPECT_DOUBLE_EQ(msgs[1].start_us, msgs[0].done_us);
  EXPECT_DOUBLE_EQ(rep.arrival_us[0], msgs[1].done_us);
}

TEST(TopologyExchange, SwitchCrossbarCouplesDisjointPairs) {
  const NodeTopology topo = cluster(4, 1);
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 1, .bytes = 240'000},
      {.src = 2, .dst = 3, .bytes = 240'000},
  };
  simulate_topology_exchange(topo, msgs);
  const std::int64_t wire_bytes = 240'000 + kInterconnect.frame_header_bytes;
  // Distinct NICs on every endpoint, but one shared crossbar: the second
  // pair waits out the first's switch occupancy (ties broken by (src, dst)).
  EXPECT_DOUBLE_EQ(msgs[0].start_us, 0.0);
  EXPECT_DOUBLE_EQ(msgs[1].start_us, wire_bytes / (kInterconnect.switch_bw_gbs * 1e3));
}

TEST(TopologyExchange, DroppedAggregateLosesEveryFrame) {
  faultsim::FaultPlan plan;
  plan.schedule.push_back(faultsim::ScheduledFault{faultsim::FaultKind::msg_drop, 0, 1,
                                                   "fabric-exchange r0->r2"});
  faultsim::ScopedFaultInjection fi(plan);

  const NodeTopology topo = cluster(2, 2);
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 2, .bytes = 100},
      {.src = 0, .dst = 2, .bytes = 200},
      {.src = 0, .dst = 3, .bytes = 300},
  };
  const FabricExchangeReport rep = simulate_topology_exchange(topo, msgs);
  // The wire message is the fabric's unit of loss: both coalesced slabs die.
  EXPECT_TRUE(msgs[0].dropped);
  EXPECT_TRUE(msgs[1].dropped);
  EXPECT_FALSE(msgs[2].dropped);
  EXPECT_EQ(rep.dropped, 2);
  EXPECT_DOUBLE_EQ(rep.arrival_us[2], 0.0) << "nothing was delivered to device 2";
  // The lost aggregate still occupied the wire: node 1's NIC ingress stays
  // busy until its (undelivered) completion, so the surviving aggregate to
  // device 3 queues behind it.
  EXPECT_DOUBLE_EQ(msgs[2].start_us, msgs[0].done_us);
}

TEST(TopologyExchange, CorruptedAggregateDamagesExactlyOneFrame) {
  faultsim::FaultPlan plan;
  plan.seed = 9;
  plan.schedule.push_back(faultsim::ScheduledFault{faultsim::FaultKind::msg_corrupt, 0, 1,
                                                   "fabric-exchange r0->r2"});
  faultsim::ScopedFaultInjection fi(plan);

  const NodeTopology topo = cluster(2, 2);
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 2, .bytes = 100},
      {.src = 0, .dst = 2, .bytes = 200},
  };
  const FabricExchangeReport rep = simulate_topology_exchange(topo, msgs);
  // One flipped bit on the wire lands in exactly one frame; framing
  // localises the damage so the receiver can retransmit one slab.
  EXPECT_EQ(rep.corrupted, 1);
  EXPECT_NE(msgs[0].corrupted, msgs[1].corrupted);
  const LinkMessage& hit = msgs[0].corrupted ? msgs[0] : msgs[1];
  const LinkMessage& clean = msgs[0].corrupted ? msgs[1] : msgs[0];
  EXPECT_NE(hit.corrupt_key, 0u);
  EXPECT_EQ(clean.corrupt_key, 0u);
  // Corruption is a payload event, not a timing event.
  const std::int64_t wire_bytes = 300 + 2 * kInterconnect.frame_header_bytes;
  EXPECT_DOUBLE_EQ(hit.done_us, fabric_wire_time_us(wire_bytes));
  EXPECT_DOUBLE_EQ(rep.arrival_us[2], hit.done_us);
}

TEST(TopologyExchange, DelayedAggregatePaysTheSpikeOnce) {
  faultsim::FaultPlan plan;
  plan.delay_latency_us = 25.0;
  plan.delay_bw_factor = 2.0;
  plan.schedule.push_back(faultsim::ScheduledFault{faultsim::FaultKind::msg_delay, 0, 1,
                                                   "fabric-exchange r0->r2"});
  faultsim::ScopedFaultInjection fi(plan);

  const NodeTopology topo = cluster(2, 2);
  std::vector<LinkMessage> msgs = {
      {.src = 0, .dst = 2, .bytes = 120'000},
      {.src = 0, .dst = 2, .bytes = 120'000},
  };
  const FabricExchangeReport rep = simulate_topology_exchange(topo, msgs);
  EXPECT_EQ(rep.delayed, 1);
  EXPECT_TRUE(msgs[0].delayed);
  const std::int64_t wire_bytes = 240'000 + 2 * kInterconnect.frame_header_bytes;
  const double clean = fabric_wire_time_us(wire_bytes);
  // The spike hits the coalesced wire message once — not once per slab.
  const double extra = 25.0 + wire_bytes / (kInterconnect.nic_bw_gbs * 1e3);
  EXPECT_NEAR(msgs[0].done_us, clean + extra, 1e-9);
  EXPECT_DOUBLE_EQ(msgs[1].done_us, msgs[0].done_us);
}

TEST(TopologyExchange, FaultedScheduleIsDeterministic) {
  auto run = [] {
    faultsim::FaultPlan plan;
    plan.seed = 31;
    plan.p_msg_drop = 0.3;
    plan.p_msg_delay = 0.3;
    faultsim::ScopedFaultInjection fi(plan);
    const NodeTopology topo = cluster(2, 2);
    std::vector<LinkMessage> msgs;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i != j) msgs.push_back({.src = i, .dst = j, .bytes = 250'000});
      }
    }
    simulate_topology_exchange(topo, msgs);
    return msgs;
  };
  const auto a = run();
  const auto b = run();
  int faulted = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dropped, b[i].dropped);
    EXPECT_EQ(a[i].delayed, b[i].delayed);
    EXPECT_DOUBLE_EQ(a[i].start_us, b[i].start_us);
    EXPECT_DOUBLE_EQ(a[i].done_us, b[i].done_us);
    faulted += (a[i].dropped || a[i].delayed) ? 1 : 0;
  }
  EXPECT_GT(faulted, 0) << "the storm must actually fire over 12 messages";
}

TEST(TopologyExchange, RejectsMalformedMessages) {
  const NodeTopology topo = cluster(2, 2);
  std::vector<LinkMessage> self = {{.src = 1, .dst = 1, .bytes = 8}};
  EXPECT_THROW(simulate_topology_exchange(topo, self), std::invalid_argument);
  std::vector<LinkMessage> range = {{.src = 0, .dst = 5, .bytes = 8}};
  EXPECT_THROW(simulate_topology_exchange(topo, range), std::invalid_argument);
  std::vector<LinkMessage> negative = {{.src = 0, .dst = 1, .bytes = -1}};
  EXPECT_THROW(simulate_topology_exchange(topo, negative), std::invalid_argument);
}

TEST(NodeLoss, ScheduledNodeCheckFiresAtItsSiteOnly) {
  faultsim::FaultPlan plan;
  plan.schedule.push_back(
      faultsim::ScheduledFault{faultsim::FaultKind::node_loss, 0, 1, "node n1"});
  faultsim::ScopedFaultInjection fi(plan);
  faultsim::Injector* inj = faultsim::Injector::current();
  ASSERT_NE(inj, nullptr);

  EXPECT_FALSE(inj->on_node_check("node n0 @ 1x1x2x2"));
  EXPECT_TRUE(inj->on_node_check("node n1 @ 1x1x2x2"));
  // repeat = 1: the node is lost once; later consults of the same site draw
  // from the (zero-probability) stream and stay healthy.
  EXPECT_FALSE(inj->on_node_check("node n1 @ 1x1x2x2"));

  const std::vector<faultsim::FaultEvent> log = inj->log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, faultsim::FaultKind::node_loss);
  EXPECT_EQ(log[0].site, "node n1 @ 1x1x2x2");
}

}  // namespace
}  // namespace gpusim
