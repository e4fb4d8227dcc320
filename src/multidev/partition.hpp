// partition.hpp — domain decomposition of the 4-D lattice across devices.
//
// The production MILC codes (DeTar et al., arXiv:1712.00143; Gottlieb,
// hep-lat/0112038) split the lattice into one contiguous hyper-rectangular
// block per rank and exchange ghost zones ("halos") with the neighbouring
// ranks before the stencil touches off-block sites.  This header reproduces
// that layer for the simulated machine:
//
//  * `PartitionGrid` — how many devices along each dimension (e.g. 1x2x2x2).
//  * `Partitioner`   — splits a `LatticeGeom` into per-rank `Shard`s and
//    resolves every stencil read either into the rank's own source sites or
//    into *ghost slots* appended after them, producing a per-rank neighbour
//    table with exactly the layout the kernels already consume
//    ([target*16 + k*4 + l]).  The existing 1LP–4LP kernels therefore run
//    unchanged per shard.
//  * `HaloMsg`       — one inbound face slab: which peer owns it, where its
//    ghost slots start, and (on the sender side) which owned source slots
//    are gathered onto the wire, in a canonical order both ends agree on.
//
// Halo depth: the staggered stencil reaches +-1 and +-3 along single
// dimensions only (kStencilOffsets) — no diagonal reads, so there is no
// corner/edge exchange at all.  Face slabs are 3 planes deep: a target at
// distance d in {0, 1, 2} inside a face reads the depth-(3 - d) ghost
// plane through its 3-hop (and d = 0 additionally reads depth 1 through
// its 1-hop), so every depth in {1, 2, 3} is touched.  Split extents must
// be >= 2 * kHaloDepth so a rank's ghosts never alias its own sites.
//
// Target sites are renumbered interior-first: a target is *interior* when
// all 16 of its stencil reads land in-block, *boundary* otherwise.  The
// runner launches the interior range while the exchange is in flight and
// the boundary range after unpack — the classic overlap schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/fabric.hpp"
#include "lattice/geometry.hpp"
#include "multidev/wire_format.hpp"
#include "su3/su3_vector.hpp"
#include "tune/tune_key.hpp"

namespace milc::multidev {

/// The stencil's longest hop sets the slab depth.
inline constexpr int kHaloDepth = 3;

/// Ghost-plane depths exchanged per face.  All three are read: targets at
/// distance d in {0, 1, 2} inside the face reach depth 3 - d via the 3-hop.
inline constexpr std::array<int, 3> kHaloPlanes{1, 2, 3};

/// Device counts along each dimension.  Rank numbering is lexicographic
/// with dimension 0 fastest, mirroring LatticeGeom's site numbering.
struct PartitionGrid {
  Coords devices{1, 1, 1, 1};

  [[nodiscard]] int total() const {
    return devices[0] * devices[1] * devices[2] * devices[3];
  }
  [[nodiscard]] int rank_of(const Coords& rc) const;
  [[nodiscard]] Coords coords_of(int rank) const;
  /// 1-D split: n devices along `dim`, 1 elsewhere.
  [[nodiscard]] static PartitionGrid along(int dim, int n);
  /// "2x1x2x2"-style label.
  [[nodiscard]] std::string label() const;
  /// Inverse of label(); returns false on malformed input.  Tuning-cache
  /// entries persist grids by their label.
  [[nodiscard]] static bool from_label(const std::string& label, PartitionGrid& out);
};

/// One inbound ghost slab, as seen by the receiving rank.
struct HaloMsg {
  int dim = 0;     ///< split dimension the slab crosses
  int side = 0;    ///< 0: slab lies beyond the block's low face, 1: high face
  int peer = 0;    ///< owning rank (the sender)
  std::int64_t ghost_base = 0;            ///< first ghost slot on the receiver
  std::vector<std::int64_t> site_eo;      ///< global eo site per wire element
  std::vector<std::int32_t> send_slots;   ///< sender-local owned-source slots, wire order

  [[nodiscard]] std::int64_t count() const {
    return static_cast<std::int64_t>(site_eo.size());
  }
  /// Wire bytes on the exact fp64 wire: one SU(3) colour vector
  /// (3 x 16 B) per site.  Identical to wire_bytes(SpinorWire::fp64).
  [[nodiscard]] std::int64_t bytes() const {
    return count() * kColors * 2 * static_cast<std::int64_t>(sizeof(double));
  }
  /// Encoded wire bytes under a spinor wire format (docs/WIRE.md §2):
  /// 48 / 24 / 12 B per site for fp64 / fp32 / fp16.  Checksums,
  /// corruption, pricing and retransmission all operate on this count.
  [[nodiscard]] std::int64_t wire_bytes(SpinorWire w) const {
    return count() * spinor_site_bytes(w);
  }
};

/// Everything one simulated device needs to run its part of the Dslash.
struct Shard {
  int rank = 0;
  Coords rank_coords{};
  Coords origin{};      ///< global coordinates of the block's low corner
  Coords local_dims{};  ///< block extents

  std::int64_t n_interior = 0;  ///< targets whose 16 reads are all in-block
  std::int64_t n_boundary = 0;  ///< targets with at least one ghost read
  /// Local target slot -> global eo index.  Interior targets come first;
  /// within each class the order is ascending global full index.
  std::vector<std::int64_t> target_eo;
  /// Owned source slot -> global eo index (ascending global full index).
  std::vector<std::int64_t> source_eo;
  std::int64_t n_ghosts = 0;  ///< ghost slots appended after the owned sources

  /// Per-target gather table, [t*16 + k*4 + l], values in
  /// [0, sources() + n_ghosts) — the extended source array.
  std::vector<std::int32_t> neighbors;

  /// Inbound slabs in canonical order (dim ascending, low side then high).
  std::vector<HaloMsg> halo;

  [[nodiscard]] std::int64_t targets() const {
    return static_cast<std::int64_t>(target_eo.size());
  }
  [[nodiscard]] std::int64_t sources() const {
    return static_cast<std::int64_t>(source_eo.size());
  }
  [[nodiscard]] std::int64_t extended_sources() const { return sources() + n_ghosts; }
  [[nodiscard]] std::int64_t halo_bytes() const;
  /// Inbound wire bytes under a spinor wire format.
  [[nodiscard]] std::int64_t halo_wire_bytes(SpinorWire w) const;
};

/// Splits a lattice over a device grid and builds every shard up front.
/// (A real MPI rank would build only its own shard and derive its send
/// lists from the symmetric slab enumeration; building all shards in one
/// place lets the send lists be filled by direct lookup instead.)
class Partitioner {
 public:
  /// Throws std::invalid_argument when an extent is not divisible by its
  /// device count, a local extent is odd (the checkerboard needs even
  /// extents everywhere), or a *split* local extent is < 2 * kHaloDepth
  /// (ghosts would alias owned sites).
  Partitioner(const LatticeGeom& geom, const PartitionGrid& grid, Parity target);

  [[nodiscard]] const LatticeGeom& geom() const { return geom_; }
  [[nodiscard]] const PartitionGrid& grid() const { return grid_; }
  [[nodiscard]] Parity target() const { return target_; }
  [[nodiscard]] const std::vector<Shard>& shards() const { return shards_; }
  [[nodiscard]] const Shard& shard(int rank) const {
    return shards_[static_cast<std::size_t>(rank)];
  }

  /// Ghost sites summed over all shards (the per-iteration exchange volume).
  [[nodiscard]] std::int64_t total_ghosts() const;

 private:
  LatticeGeom geom_;
  PartitionGrid grid_;
  Parity target_;
  std::vector<Shard> shards_;
};

// --- topology-aware grid selection -----------------------------------------
//
// Node placement is fixed by rank numbering: node_of(rank) = rank /
// devices_per_node, and ranks vary fastest along dimension 0.  Faster-
// varying split dimensions therefore stay inside a node group (NVLink);
// the slowest-varying split crosses the fabric.  Choosing *which*
// dimensions to split thus chooses which face surfaces ride the cheap
// island and which pay fabric prices — the scoring below makes that choice
// analytically, without building a Partitioner per candidate.

/// Why (geom, grid) cannot be partitioned — empty string when it can.
/// The Partitioner constructor throws exactly this message.
[[nodiscard]] std::string partition_error(const LatticeGeom& geom, const PartitionGrid& grid);

/// Predicted per-iteration exchange cost of one grid on one topology.
struct GridScore {
  PartitionGrid grid;
  std::int64_t intra_bytes = 0;  ///< slab payload bytes staying on NVLink
  std::int64_t inter_bytes = 0;  ///< slab payload bytes crossing the fabric
  int inter_pairs = 0;           ///< aggregated fabric wire messages per exchange
  /// Analytic exchange-time bound: the busiest device's NVLink egress plus
  /// the busiest node's NIC egress (gpusim's uncontended wire time per
  /// slab and per aggregate).
  double cost_us = 0.0;
};

/// Score one candidate grid on one topology (grid.total() devices must fit
/// the topology).  Pure arithmetic over face surfaces — no shards built.
/// Slab payloads are priced at the wire format's encoded size (fp64 when
/// defaulted), so a reduced wire genuinely changes which grid is cheapest.
[[nodiscard]] GridScore score_grid(const LatticeGeom& geom, const PartitionGrid& grid,
                                   const gpusim::NodeTopology& topo,
                                   const WireFormat& wire = {});

/// Every partitionable device grid with exactly `devices` ranks, in
/// ascending lexicographic (d0, d1, d2, d3) order.
[[nodiscard]] std::vector<PartitionGrid> enumerate_grids(const LatticeGeom& geom,
                                                         int devices);

/// The tuning-cache key choose_grid consults: kernel "grid", the cluster's
/// A100 in the arch field, the topology in the dev<N> and topo fields (grid
/// cost is pure arithmetic over gpusim's fixed wire constants).
[[nodiscard]] tune::TuneKey grid_tune_key(const LatticeGeom& geom,
                                          const gpusim::NodeTopology& topo,
                                          const WireFormat& wire = {});

/// The cheapest partitionable grid for this lattice on this topology —
/// prefers cuts whose surfaces stay intra-node.  Cost ties go to the
/// first-enumerated candidate; ascending lexicographic order makes that
/// the one splitting later dimensions (t first, then z), matching the
/// repo's existing split convention.  Throws std::invalid_argument when
/// no grid can partition the lattice.
///
/// With a tune::TuneSession installed, consults grid_tune_key() first: a
/// hit re-scores only the cached grid and verifies its predicted cost
/// bit-for-bit (tune::ReplayMismatch otherwise, and for a cached label that
/// does not parse or does not partition the lattice) instead of scoring
/// every candidate; a miss scores the full enumeration and records the
/// winner.
[[nodiscard]] PartitionGrid choose_grid(const LatticeGeom& geom,
                                        const gpusim::NodeTopology& topo,
                                        const WireFormat& wire = {});

}  // namespace milc::multidev
