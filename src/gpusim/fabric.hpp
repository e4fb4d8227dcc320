// fabric.hpp — the node topology and the one exchange over it.
//
// A node is an NVSwitch island: every device pair inside it is NVLink, and
// each device owns one egress and one ingress port.  Production MILC runs
// span *clusters* of such nodes (DeTar et al., arXiv:1712.00143; Gottlieb,
// hep-lat/0112038), where the dominant cost is the InfiniBand-class fabric
// between them — an order of magnitude less bandwidth and several times the
// latency of NVLink.  `NodeTopology` composes node groups over that fabric;
// a single node is the one-node topology, so every grid, one device to a
// cluster, is priced by the same simulate_topology_exchange.  Global device
// ranks are grouped contiguously — devices [k*devices_per_node,
// (k+1)*devices_per_node) form node k — so a message is intra-node (NVLink)
// exactly when both endpoints share a node group.  The coefficients are
// link.hpp's kInterconnect.
//
// NVLink contention: messages sharing a device port serialise (NVLink is
// full-duplex, so egress and ingress do not contend with each other).
// Fabric contention has three structural rules, each distinct from NVLink's
// per-device ports:
//  * one NIC per node: inter-node messages sharing a source node serialise
//    on its NIC egress, messages sharing a destination node on its ingress;
//  * the injection-rate limit: the egress port stays busy for
//    bytes / injection_rate_gbs per message — were the injection rate below
//    the NIC line rate (several GPUs feeding one HCA over PCIe), a node
//    could not fill the pipe back-to-back even though each message still
//    travels at line rate;
//  * switch contention: every message also occupies the shared switch
//    crossbar for bytes / switch_bw_gbs — invisible at small node counts,
//    the binding resource once many node pairs talk at once.
//
// Aggregation: latency dominates small messages on the fabric, so the
// multidev runner coalesces all face slabs a device pair exchanges in one
// direction into ONE wire message with a small frame header per slab
// (`aggregate_fabric_messages`) — one NIC latency per neighbour instead of
// one per (dimension, side) slab.  Framing is explicit (`FabricFrame`) so
// the receiver can split the payload without tags or matching logic.
//
// Fault injection: when a faultsim::Injector is installed, every NVLink
// message is consulted (`Injector::on_message`) before scheduling at its
// own site ("halo-exchange r<src>->r<dst>" by default) — it may be dropped
// (transmits, occupies ports, never delivered), corrupted (delivered with a
// flipped payload bit; the *caller* owns the payload and applies
// `faultsim::flip_bit(corrupt_key)` on receipt), or delayed (extra latency +
// degraded bandwidth).  Inter-node messages are consulted per *aggregate*
// at site "fabric-exchange r<src>->r<dst> n<srcnode>->n<dstnode>": a
// dropped aggregate loses every frame; a corrupted aggregate corrupts
// exactly one deterministically-picked frame; a delayed aggregate pays the
// latency spike once.  With no injector installed the schedule is untouched.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/link.hpp"

namespace gpusim {

/// Hot-spare capacity held in reserve alongside the active devices: idle
/// devices inside each node (warm spares on the same NVLink island) and
/// whole standby nodes behind the fabric.  Spares are *capacity accounting*,
/// not extra ranks — the partition grid never includes them until a
/// recovery consumes one, at which point the lost shard's slabs are
/// re-replicated onto the spare over the priced interconnect instead of
/// shrinking the grid (docs/RESILIENCE.md, "Recovery taxonomy").
struct SpareInventory {
  int devices_per_node = 0;  ///< idle same-island devices available per node
  int nodes = 0;             ///< whole standby nodes behind the fabric

  [[nodiscard]] bool any() const { return devices_per_node > 0 || nodes > 0; }
};

/// Two-level interconnect: `nodes` groups of `devices_per_node` devices,
/// NVLink inside a group, the fabric between groups.  Device ranks are
/// grouped contiguously: node_of(r) = r / devices_per_node.  The default is
/// one DGX-A100 node: 8 devices on one NVSwitch.
struct NodeTopology {
  int nodes = 1;
  int devices_per_node = 8;
  SpareInventory spares{};  ///< hot-spare pool for re-replication failover

  [[nodiscard]] int total_devices() const { return nodes * devices_per_node; }
  [[nodiscard]] int node_of(int device) const { return device / devices_per_node; }
  [[nodiscard]] bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
  [[nodiscard]] bool multi_node() const { return nodes > 1; }
};

/// A cluster of `nodes` nodes with `devices_per_node` A100s each.
[[nodiscard]] NodeTopology cluster(int nodes, int devices_per_node);

/// One constituent slab inside an aggregated fabric message: where the
/// caller's msgs[msg_index] payload sits in the coalesced wire payload.
struct FabricFrame {
  std::size_t msg_index = 0;    ///< index into the caller's message span
  std::int64_t offset_bytes = 0;  ///< payload offset inside the aggregate
  std::int64_t bytes = 0;         ///< payload bytes of this frame
};

/// One coalesced inter-node wire message: every slab a (src, dst) device
/// pair exchanges in one direction, framed in canonical (input) order.
struct AggregatedMessage {
  int src = 0;  ///< sending device (global rank)
  int dst = 0;  ///< receiving device (global rank)
  double depart_us = 0.0;  ///< max of the constituents' departure times
  std::vector<FabricFrame> frames;
  std::int64_t payload_bytes = 0;

  /// Bytes on the wire: payload plus one frame header per slab.
  [[nodiscard]] std::int64_t wire_bytes() const {
    return payload_bytes +
           static_cast<std::int64_t>(frames.size()) * kInterconnect.frame_header_bytes;
  }
};

/// Coalesce the inter-node subset of `msgs` into one aggregate per (src,
/// dst) device pair, frames in input order, aggregates ordered by first
/// appearance — fully deterministic.  Intra-node messages are ignored.
[[nodiscard]] std::vector<AggregatedMessage> aggregate_fabric_messages(
    const NodeTopology& topo, std::span<const LinkMessage> msgs);

/// Result of simulating one exchange over the topology.
struct FabricExchangeReport {
  double finish_us = 0.0;            ///< last delivery over either network
  std::vector<double> arrival_us;    ///< per device: last inbound delivery
  std::int64_t intra_bytes = 0;      ///< NVLink wire bytes
  std::int64_t inter_bytes = 0;      ///< fabric wire bytes incl. frame headers
  int intra_messages = 0;            ///< point-to-point NVLink messages
  int inter_messages = 0;            ///< aggregated fabric wire messages
  double intra_finish_us = 0.0;      ///< last NVLink delivery
  double inter_finish_us = 0.0;      ///< last fabric delivery
  double intra_wire_us = 0.0;        ///< summed NVLink message wire times
  double inter_wire_us = 0.0;        ///< summed fabric aggregate wire times
  int dropped = 0;                   ///< injected losses (frames, both tiers)
  int corrupted = 0;
  int delayed = 0;
};

/// Event-driven simulation of one message set over the topology, the one
/// exchange every grid runs.  Scheduling is greedy and deterministic on both
/// tiers.  Intra-node messages: repeatedly start the pending message with
/// the earliest ready time max(depart, egress_free[src], ingress_free[dst]),
/// ties broken by (src, dst, position); ports stay busy for the full wire
/// time, which serialises same-port messages — the per-pair contention the
/// all-to-neighbour exchange of a 4-D decomposition produces.  Inter-node
/// messages are aggregated per device pair and scheduled over NIC egress
/// (busy for bytes / injection_rate), NIC ingress (busy until delivery) and
/// the shared switch (busy for bytes / switch_bw) — pick the pending
/// aggregate with the earliest ready time, ties by (src, dst).  The two
/// networks are disjoint resources, so fabric aggregates fill the pipe
/// while NVLink traffic drains — the two-phase overlap the multidev runner
/// schedules.  Per-message outputs (start/done/fault flags) are written
/// back into `msgs`; an aggregate's constituents share its timing and fault
/// verdict (one frame is picked for corruption).  Throws
/// std::invalid_argument on an endpoint outside the topology, a
/// self-message or a negative byte count.
FabricExchangeReport simulate_topology_exchange(const NodeTopology& topo,
                                                std::span<LinkMessage> msgs);

}  // namespace gpusim
