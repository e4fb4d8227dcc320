// link.hpp — the interconnect's coefficients and the messages that cross it.
//
// The single-GPU simulator ends at HBM; the multi-device Dslash adds one
// more resource: the links over which halo (ghost-zone) traffic moves.
// This model is deliberately of the same character as the rest of gpusim —
// a small set of audited latency/bandwidth constants plus structural
// contention rules — so exchange time is simulated with the same rigor as
// kernel time instead of being hand-waved.
//
// Two tiers, one table: inside a node every device pair is NVLink through
// the node's NVSwitch (DGX-A100 style); between nodes an HDR InfiniBand
// fabric carries the traffic (fabric.hpp composes the two into a
// NodeTopology and schedules one exchange over both).  A message's wire
// time is latency + bytes / bandwidth on its tier.
//
// Constants: A100 NVLink3 delivers 300 GB/s unidirectional per GPU pair
// through NVSwitch (12 links x 25 GB/s), at a one-way software latency of
// 1.9 us for small transfers (cudaMemcpyPeer-style, not raw SerDes).  The
// fabric is HDR-generation (200 Gb/s): ~24 GB/s effective line rate after
// protocol overhead, ~5 us end-to-end MPI-level latency, ~0.3 us per switch
// hop (two hops through one leaf/spine crossing), and a shared switch
// crossbar sized at 8 HDR ports.  Like kCalibration, the table is set once
// and read only inside gpusim: no run, topology or bench takes another.
#pragma once

#include <cstdint>
#include <string>

namespace gpusim {

/// Latency–bandwidth coefficients of both tiers: NVLink inside a node, the
/// HDR fabric between nodes.
struct Interconnect {
  double nvlink_bw_gbs = 300.0;      ///< unidirectional GB/s per device pair
  double nvlink_latency_us = 1.9;
  double nic_bw_gbs = 24.0;          ///< per-NIC line rate, GB/s unidirectional
  double nic_latency_us = 5.0;       ///< end-to-end software latency per message
  double injection_rate_gbs = 24.0;  ///< per-node injection cap (PCIe-fed HCA)
  double switch_bw_gbs = 192.0;      ///< shared crossbar capacity, all pairs
  double switch_latency_us = 0.3;    ///< per-hop latency (charged twice)
  std::int64_t frame_header_bytes = 32;  ///< wire overhead per aggregated frame
};

inline constexpr Interconnect kInterconnect{};

/// Uncontended NVLink transfer time of one message: latency + bytes / bandwidth.
[[nodiscard]] inline double nvlink_wire_time_us(std::int64_t bytes) {
  // GB/s == bytes/us * 1e-3, so us = bytes / (bw * 1e3).
  return kInterconnect.nvlink_latency_us +
         static_cast<double>(bytes) / (kInterconnect.nvlink_bw_gbs * 1e3);
}

/// Uncontended fabric transfer time of one wire message:
/// NIC latency + two switch hops + bytes / NIC line rate.
[[nodiscard]] inline double fabric_wire_time_us(std::int64_t bytes) {
  return kInterconnect.nic_latency_us + 2.0 * kInterconnect.switch_latency_us +
         static_cast<double>(bytes) / (kInterconnect.nic_bw_gbs * 1e3);
}

// score_grid (multidev/partition.cpp) prices each aggregate a node sends at
// the slower of its line and injection rates; with the two equal, that is
// fabric_wire_time_us.
static_assert(kInterconnect.injection_rate_gbs == kInterconnect.nic_bw_gbs);

/// One point-to-point transfer.  `depart_us` is an input (the earliest the
/// sender can put the message on the wire — its pack-kernel completion);
/// `start_us`/`done_us` are filled in by simulate_topology_exchange.
struct LinkMessage {
  int src = 0;
  int dst = 0;
  std::int64_t bytes = 0;
  double depart_us = 0.0;
  double start_us = 0.0;
  double done_us = 0.0;

  /// Fault-site label consulted by the injector; empty = the default
  /// "halo-exchange r<src>->r<dst>".
  std::string site{};

  // Filled in by the exchange when a fault injector is installed.
  bool dropped = false;     ///< transmitted but never delivered
  bool corrupted = false;   ///< delivered; caller must flip_bit(corrupt_key)
  bool delayed = false;     ///< latency spike + degraded bandwidth applied
  std::uint64_t corrupt_key = 0;
};

}  // namespace gpusim
