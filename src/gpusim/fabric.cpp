#include "gpusim/fabric.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "dsan/record.hpp"
#include "faultsim/faultsim.hpp"

namespace gpusim {

namespace {

std::string halo_site(const LinkMessage& msg) {
  return msg.site.empty() ? "halo-exchange r" + std::to_string(msg.src) + "->r" +
                                std::to_string(msg.dst)
                          : msg.site;
}

std::string fabric_site(const NodeTopology& topo, const AggregatedMessage& agg) {
  return "fabric-exchange r" + std::to_string(agg.src) + "->r" + std::to_string(agg.dst) +
         " n" + std::to_string(topo.node_of(agg.src)) + "->n" +
         std::to_string(topo.node_of(agg.dst));
}

/// The NVLink tier of one exchange: msgs[intra[k]] over per-device egress
/// and ingress ports.  Consults the injector per message in index order
/// first (the verdict shapes the schedule; the *caller* handles dropped and
/// corrupted payloads), then schedules greedily and fills rep's intra
/// fields, fault counts and arrival horizons.
void schedule_nvlink(std::span<LinkMessage> msgs, const std::vector<std::size_t>& intra,
                     int ndev, FabricExchangeReport& rep) {
  std::vector<double> extra_lat(intra.size(), 0.0);
  std::vector<double> bw_factor(intra.size(), 1.0);
  if (faultsim::Injector* inj = faultsim::Injector::current()) {
    for (std::size_t k = 0; k < intra.size(); ++k) {
      LinkMessage& msg = msgs[intra[k]];
      const faultsim::LinkVerdict v =
          inj->on_message(halo_site(msg), static_cast<std::uint64_t>(msg.bytes));
      msg.dropped = v.dropped;
      msg.corrupted = v.corrupted;
      msg.delayed = v.delayed;
      msg.corrupt_key = v.corrupt_key;
      extra_lat[k] = v.extra_latency_us;
      bw_factor[k] = v.bw_factor;
      rep.dropped += v.dropped ? 1 : 0;
      rep.corrupted += v.corrupted ? 1 : 0;
      rep.delayed += v.delayed ? 1 : 0;
    }
  }

  std::vector<double> egress_free(static_cast<std::size_t>(ndev), 0.0);
  std::vector<double> ingress_free(static_cast<std::size_t>(ndev), 0.0);
  std::vector<bool> done(intra.size(), false);

  // dsan schedule instrumentation: remember which schedule node last held
  // each port, so every decision records the waits that gated its start.
  dsan::Recorder* rec = dsan::Recorder::current();
  std::vector<std::int64_t> egress_holder(static_cast<std::size_t>(ndev), -1);
  std::vector<std::int64_t> ingress_holder(static_cast<std::size_t>(ndev), -1);

  for (std::size_t round = 0; round < intra.size(); ++round) {
    // Greedy: the pending message with the earliest ready time goes next.
    std::size_t pick = intra.size();
    double pick_ready = 0.0;
    for (std::size_t k = 0; k < intra.size(); ++k) {
      if (done[k]) continue;
      const LinkMessage& msg = msgs[intra[k]];
      const double ready =
          std::max({msg.depart_us, egress_free[static_cast<std::size_t>(msg.src)],
                    ingress_free[static_cast<std::size_t>(msg.dst)]});
      const bool better =
          pick == intra.size() || ready < pick_ready ||
          (ready == pick_ready &&
           std::make_tuple(msg.src, msg.dst, k) <
               std::make_tuple(msgs[intra[pick]].src, msgs[intra[pick]].dst, pick));
      if (better) {
        pick = k;
        pick_ready = ready;
      }
    }

    LinkMessage& msg = msgs[intra[pick]];
    double wire = nvlink_wire_time_us(msg.bytes);
    if (msg.delayed) {
      // Congestion spike: extra latency plus a bandwidth divided by the
      // plan's factor (bw_factor - 1 extra transfer times on top of one).
      wire += extra_lat[pick] + (bw_factor[pick] - 1.0) * static_cast<double>(msg.bytes) /
                                    (kInterconnect.nvlink_bw_gbs * 1e3);
    }
    msg.start_us = pick_ready;
    msg.done_us = pick_ready + wire;
    const auto src = static_cast<std::size_t>(msg.src);
    const auto dst = static_cast<std::size_t>(msg.dst);
    if (rec != nullptr) {
      std::vector<std::int64_t> waits;
      if (egress_holder[src] >= 0) waits.push_back(egress_holder[src]);
      if (ingress_holder[dst] >= 0 && ingress_holder[dst] != egress_holder[src]) {
        waits.push_back(ingress_holder[dst]);
      }
      const std::int64_t id = rec->wire_sched(halo_site(msg), msg.src, msg.dst, msg.start_us,
                                              msg.done_us, std::move(waits));
      egress_holder[src] = id;
      ingress_holder[dst] = id;
    }
    egress_free[src] = msg.done_us;
    ingress_free[dst] = msg.done_us;
    if (!msg.dropped) {
      // A dropped message occupies the ports (it transmitted) but is never
      // delivered, so it does not advance the receiver's arrival horizon.
      rep.arrival_us[dst] = std::max(rep.arrival_us[dst], msg.done_us);
      rep.intra_finish_us = std::max(rep.intra_finish_us, msg.done_us);
    }
    rep.intra_bytes += msg.bytes;
    done[pick] = true;
  }
  for (const std::size_t i : intra) rep.intra_wire_us += msgs[i].done_us - msgs[i].start_us;
  rep.intra_messages = static_cast<int>(intra.size());
}

}  // namespace

NodeTopology cluster(int nodes, int devices_per_node) {
  if (nodes < 1) throw std::invalid_argument("cluster: nodes must be >= 1");
  if (devices_per_node < 1) {
    throw std::invalid_argument("cluster: devices_per_node must be >= 1");
  }
  NodeTopology topo;
  topo.nodes = nodes;
  topo.devices_per_node = devices_per_node;
  return topo;
}

std::vector<AggregatedMessage> aggregate_fabric_messages(
    const NodeTopology& topo, std::span<const LinkMessage> msgs) {
  std::vector<AggregatedMessage> aggs;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const LinkMessage& msg = msgs[i];
    if (topo.same_node(msg.src, msg.dst)) continue;
    // First-appearance order keyed by (src, dst); message counts are tiny
    // (one aggregate per topological neighbour), so a linear scan is fine.
    AggregatedMessage* agg = nullptr;
    for (AggregatedMessage& a : aggs) {
      if (a.src == msg.src && a.dst == msg.dst) {
        agg = &a;
        break;
      }
    }
    if (agg == nullptr) {
      aggs.emplace_back();
      agg = &aggs.back();
      agg->src = msg.src;
      agg->dst = msg.dst;
      agg->depart_us = msg.depart_us;
    }
    agg->frames.push_back(FabricFrame{i, agg->payload_bytes, msg.bytes});
    agg->payload_bytes += msg.bytes;
    agg->depart_us = std::max(agg->depart_us, msg.depart_us);
  }
  return aggs;
}

FabricExchangeReport simulate_topology_exchange(const NodeTopology& topo,
                                                std::span<LinkMessage> msgs) {
  const int ndev = topo.total_devices();
  FabricExchangeReport rep;
  rep.arrival_us.assign(static_cast<std::size_t>(ndev), 0.0);

  for (const LinkMessage& msg : msgs) {
    if (msg.src < 0 || msg.src >= ndev || msg.dst < 0 || msg.dst >= ndev) {
      throw std::invalid_argument("simulate_topology_exchange: endpoint outside [0, " +
                                  std::to_string(ndev) + ")");
    }
    if (msg.src == msg.dst) {
      throw std::invalid_argument("simulate_topology_exchange: self-message (src == dst)");
    }
    if (msg.bytes < 0) {
      throw std::invalid_argument("simulate_topology_exchange: negative byte count");
    }
  }

  // --- Intra-node tier: every same-node pair is NVLink.
  std::vector<std::size_t> intra;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    if (topo.same_node(msgs[i].src, msgs[i].dst)) intra.push_back(i);
  }
  schedule_nvlink(msgs, intra, ndev, rep);

  // --- Inter-node tier: coalesce per device pair, then consult the injector
  // once per aggregate (a wire message is the fabric's unit of loss).
  std::vector<AggregatedMessage> aggs = aggregate_fabric_messages(topo, msgs);
  struct AggVerdict {
    bool dropped = false;
    bool corrupted = false;
    bool delayed = false;
    std::uint64_t corrupt_key = 0;
    double extra_latency_us = 0.0;
    double bw_factor = 1.0;
  };
  std::vector<AggVerdict> verdicts(aggs.size());
  if (faultsim::Injector* inj = faultsim::Injector::current()) {
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const AggregatedMessage& agg = aggs[a];
      const faultsim::LinkVerdict v = inj->on_message(
          fabric_site(topo, agg), static_cast<std::uint64_t>(agg.wire_bytes()));
      verdicts[a] = AggVerdict{v.dropped,     v.corrupted,         v.delayed,
                               v.corrupt_key, v.extra_latency_us,  v.bw_factor};
    }
  }

  // Greedy deterministic schedule over one NIC per node (egress busy for the
  // injection time, ingress until delivery) plus the shared switch crossbar.
  std::vector<double> nic_egress_free(static_cast<std::size_t>(topo.nodes), 0.0);
  std::vector<double> nic_ingress_free(static_cast<std::size_t>(topo.nodes), 0.0);
  double switch_free = 0.0;
  std::vector<bool> sent(aggs.size(), false);

  // dsan schedule instrumentation, one node per aggregate: the waits name
  // the decisions that last held the three contended resources (source NIC
  // egress, destination NIC ingress, shared switch crossbar).
  dsan::Recorder* rec = dsan::Recorder::current();
  std::vector<std::int64_t> egress_holder(static_cast<std::size_t>(topo.nodes), -1);
  std::vector<std::int64_t> ingress_holder(static_cast<std::size_t>(topo.nodes), -1);
  std::int64_t switch_holder = -1;

  for (std::size_t round = 0; round < aggs.size(); ++round) {
    std::size_t pick = aggs.size();
    double pick_ready = 0.0;
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      if (sent[a]) continue;
      const AggregatedMessage& agg = aggs[a];
      const std::size_t sn = static_cast<std::size_t>(topo.node_of(agg.src));
      const std::size_t dn = static_cast<std::size_t>(topo.node_of(agg.dst));
      const double ready = std::max(
          {agg.depart_us, nic_egress_free[sn], nic_ingress_free[dn], switch_free});
      const bool better =
          pick == aggs.size() || ready < pick_ready ||
          (ready == pick_ready && std::make_pair(agg.src, agg.dst) <
                                      std::make_pair(aggs[pick].src, aggs[pick].dst));
      if (better) {
        pick = a;
        pick_ready = ready;
      }
    }

    AggregatedMessage& agg = aggs[pick];
    const AggVerdict& v = verdicts[pick];
    const std::int64_t wire_bytes = agg.wire_bytes();
    double wire = fabric_wire_time_us(wire_bytes);
    if (v.delayed) {
      // Congestion spike, same convention as NVLink's: extra latency plus
      // bw_factor - 1 extra transfer times on top of the nominal one.
      wire += v.extra_latency_us + (v.bw_factor - 1.0) * static_cast<double>(wire_bytes) /
                                       (kInterconnect.nic_bw_gbs * 1e3);
    }
    const double start = pick_ready;
    const double done = start + wire;
    const std::size_t sn = static_cast<std::size_t>(topo.node_of(agg.src));
    const std::size_t dn = static_cast<std::size_t>(topo.node_of(agg.dst));
    if (rec != nullptr) {
      std::vector<std::int64_t> waits;
      for (const std::int64_t h : {egress_holder[sn], ingress_holder[dn], switch_holder}) {
        if (h < 0) continue;
        if (std::find(waits.begin(), waits.end(), h) == waits.end()) waits.push_back(h);
      }
      const std::int64_t id =
          rec->wire_sched(fabric_site(topo, agg), agg.src, agg.dst, start, done, std::move(waits),
                          std::to_string(agg.frames.size()) + " frames aggregated");
      egress_holder[sn] = id;
      ingress_holder[dn] = id;
      switch_holder = id;
    }
    nic_egress_free[sn] =
        start + static_cast<double>(wire_bytes) / (kInterconnect.injection_rate_gbs * 1e3);
    nic_ingress_free[dn] = done;
    switch_free = start + static_cast<double>(wire_bytes) / (kInterconnect.switch_bw_gbs * 1e3);
    sent[pick] = true;

    rep.inter_bytes += wire_bytes;
    rep.inter_messages += 1;
    rep.inter_wire_us += wire;
    if (!v.dropped) {
      rep.arrival_us[static_cast<std::size_t>(agg.dst)] =
          std::max(rep.arrival_us[static_cast<std::size_t>(agg.dst)], done);
      rep.inter_finish_us = std::max(rep.inter_finish_us, done);
    }
    if (v.dropped) rep.dropped += static_cast<int>(agg.frames.size());
    if (v.corrupted) rep.corrupted += 1;
    if (v.delayed) rep.delayed += 1;

    // Write the aggregate's timing and verdict back into its constituents;
    // a corrupted aggregate damages exactly one deterministically-picked
    // frame (the wire carries one flipped bit, framing localises it).
    const std::size_t hit = v.corrupted
                                ? static_cast<std::size_t>(v.corrupt_key % agg.frames.size())
                                : agg.frames.size();
    for (std::size_t k = 0; k < agg.frames.size(); ++k) {
      LinkMessage& msg = msgs[agg.frames[k].msg_index];
      msg.start_us = start;
      msg.done_us = done;
      msg.dropped = v.dropped;
      msg.delayed = v.delayed;
      msg.corrupted = (k == hit);
      msg.corrupt_key = (k == hit) ? v.corrupt_key : 0;
    }
  }

  rep.finish_us = std::max(rep.intra_finish_us, rep.inter_finish_us);
  return rep;
}

}  // namespace gpusim
