#include "multidev/partition.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "tune/explorer.hpp"
#include "tune/session.hpp"

namespace milc::multidev {

namespace {

/// Visit every site of a hyper-rectangular box in ascending global full
/// index (dimension 0 fastest), with dimension `fix_dim` (when >= 0) pinned
/// to the absolute coordinate `fix_val` instead of spanning the box.
template <typename Fn>
void for_each_box_site(const Coords& origin, const Coords& extents, int fix_dim, int fix_val,
                       Fn&& fn) {
  Coords lo = origin;
  Coords n = extents;
  if (fix_dim >= 0) {
    lo[static_cast<std::size_t>(fix_dim)] = fix_val;
    n[static_cast<std::size_t>(fix_dim)] = 1;
  }
  Coords c{};
  for (int d3 = 0; d3 < n[3]; ++d3) {
    c[3] = lo[3] + d3;
    for (int d2 = 0; d2 < n[2]; ++d2) {
      c[2] = lo[2] + d2;
      for (int d1 = 0; d1 < n[1]; ++d1) {
        c[1] = lo[1] + d1;
        for (int d0 = 0; d0 < n[0]; ++d0) {
          c[0] = lo[0] + d0;
          fn(c);
        }
      }
    }
  }
}

[[nodiscard]] bool in_block(const Shard& sh, const Coords& c) {
  for (int d = 0; d < kNdim; ++d) {
    const int v = c[static_cast<std::size_t>(d)];
    const int lo = sh.origin[static_cast<std::size_t>(d)];
    if (v < lo || v >= lo + sh.local_dims[static_cast<std::size_t>(d)]) return false;
  }
  return true;
}

}  // namespace

int PartitionGrid::rank_of(const Coords& rc) const {
  int r = 0;
  int stride = 1;
  for (int d = 0; d < kNdim; ++d) {
    r += rc[static_cast<std::size_t>(d)] * stride;
    stride *= devices[static_cast<std::size_t>(d)];
  }
  return r;
}

Coords PartitionGrid::coords_of(int rank) const {
  Coords rc{};
  for (int d = 0; d < kNdim; ++d) {
    rc[static_cast<std::size_t>(d)] = rank % devices[static_cast<std::size_t>(d)];
    rank /= devices[static_cast<std::size_t>(d)];
  }
  return rc;
}

PartitionGrid PartitionGrid::along(int dim, int n) {
  PartitionGrid g;
  g.devices[static_cast<std::size_t>(dim)] = n;
  return g;
}

std::string PartitionGrid::label() const {
  std::string s;
  for (int d = 0; d < kNdim; ++d) {
    if (d > 0) s += 'x';
    s += std::to_string(devices[static_cast<std::size_t>(d)]);
  }
  return s;
}

bool PartitionGrid::from_label(const std::string& label, PartitionGrid& out) {
  Coords devs{};
  int d = 0;
  int value = -1;
  for (const char ch : label) {
    if (ch >= '0' && ch <= '9') {
      value = (value < 0 ? 0 : value * 10) + (ch - '0');
    } else if (ch == 'x') {
      if (value <= 0 || d >= kNdim) return false;
      devs[static_cast<std::size_t>(d++)] = value;
      value = -1;
    } else {
      return false;
    }
  }
  if (value <= 0 || d != kNdim - 1) return false;
  devs[static_cast<std::size_t>(d)] = value;
  out.devices = devs;
  return true;
}

std::int64_t Shard::halo_bytes() const {
  std::int64_t b = 0;
  for (const HaloMsg& m : halo) b += m.bytes();
  return b;
}

std::int64_t Shard::halo_wire_bytes(SpinorWire w) const {
  std::int64_t b = 0;
  for (const HaloMsg& m : halo) b += m.wire_bytes(w);
  return b;
}

std::string partition_error(const LatticeGeom& geom, const PartitionGrid& grid) {
  for (int d = 0; d < kNdim; ++d) {
    const int nd = grid.devices[static_cast<std::size_t>(d)];
    const int ext = geom.extent(d);
    if (nd < 1) {
      return "Partitioner: device count along dim " + std::to_string(d) +
             " must be >= 1, got " + std::to_string(nd);
    }
    if (ext % nd != 0) {
      return "Partitioner: extent " + std::to_string(ext) + " of dim " + std::to_string(d) +
             " is not divisible by " + std::to_string(nd) + " devices";
    }
    const int loc = ext / nd;
    if (loc % 2 != 0) {
      return "Partitioner: local extent " + std::to_string(loc) + " of dim " +
             std::to_string(d) + " is odd (checkerboard needs even extents)";
    }
    if (nd > 1 && loc < 2 * kHaloDepth) {
      return "Partitioner: local extent " + std::to_string(loc) + " of split dim " +
             std::to_string(d) + " is < " + std::to_string(2 * kHaloDepth) +
             " — depth-3 ghosts would alias owned sites";
    }
  }
  return {};
}

Partitioner::Partitioner(const LatticeGeom& geom, const PartitionGrid& grid, Parity target)
    : geom_(geom), grid_(grid), target_(target) {
  if (const std::string err = partition_error(geom, grid); !err.empty()) {
    throw std::invalid_argument(err);
  }
  Coords local{};
  for (int d = 0; d < kNdim; ++d) {
    local[static_cast<std::size_t>(d)] =
        geom.extent(d) / grid.devices[static_cast<std::size_t>(d)];
  }

  const int nranks = grid.total();
  const Parity source = opposite(target);
  shards_.resize(static_cast<std::size_t>(nranks));
  // Per-rank owned-source map: global eo -> local slot (needed to resolve
  // in-block reads and, in the second pass, the peers' send lists).
  std::vector<std::unordered_map<std::int64_t, std::int32_t>> src_map(
      static_cast<std::size_t>(nranks));

  for (int r = 0; r < nranks; ++r) {
    Shard& sh = shards_[static_cast<std::size_t>(r)];
    sh.rank = r;
    sh.rank_coords = grid.coords_of(r);
    sh.local_dims = local;
    for (int d = 0; d < kNdim; ++d) {
      sh.origin[static_cast<std::size_t>(d)] =
          sh.rank_coords[static_cast<std::size_t>(d)] * local[static_cast<std::size_t>(d)];
    }

    // Owned target and source sites, ascending global full index.
    for_each_box_site(sh.origin, sh.local_dims, -1, 0, [&](const Coords& c) {
      const std::int64_t f = geom.full_index(c);
      if (geom.parity(f) == target) {
        sh.target_eo.push_back(geom.eo_index(f));
      } else {
        const auto slot = static_cast<std::int32_t>(sh.source_eo.size());
        src_map[static_cast<std::size_t>(r)].emplace(geom.eo_index(f), slot);
        sh.source_eo.push_back(geom.eo_index(f));
      }
    });

    // Interior-first target renumbering (stable within each class).
    std::vector<std::int64_t> interior;
    std::vector<std::int64_t> boundary;
    for (const std::int64_t eo : sh.target_eo) {
      const Coords c = geom.coords(geom.full_index_of(target, eo));
      bool all_in = true;
      for (int k = 0; k < kNdim && all_in; ++k) {
        for (const int off : kStencilOffsets) {
          if (!in_block(sh, geom.displace(c, k, off))) {
            all_in = false;
            break;
          }
        }
      }
      (all_in ? interior : boundary).push_back(eo);
    }
    sh.n_interior = static_cast<std::int64_t>(interior.size());
    sh.n_boundary = static_cast<std::int64_t>(boundary.size());
    sh.target_eo = std::move(interior);
    sh.target_eo.insert(sh.target_eo.end(), boundary.begin(), boundary.end());

    // Ghost slabs: per split dimension and face, the source-parity sites of
    // the three planes beyond the block (depths 1..3 — every one is read,
    // see kHaloPlanes).  Only the source-parity half of each plane goes on
    // the wire: a 2x saving over exchanging full planes.
    std::unordered_map<std::int64_t, std::int32_t> ghost_map;
    for (int d = 0; d < kNdim; ++d) {
      if (grid.devices[static_cast<std::size_t>(d)] == 1) continue;
      const int ext = geom.extent(d);
      for (int side = 0; side < 2; ++side) {
        Coords prc = sh.rank_coords;
        const int nd = grid.devices[static_cast<std::size_t>(d)];
        prc[static_cast<std::size_t>(d)] =
            (prc[static_cast<std::size_t>(d)] + (side == 0 ? nd - 1 : 1)) % nd;
        HaloMsg msg;
        msg.dim = d;
        msg.side = side;
        msg.peer = grid.rank_of(prc);
        msg.ghost_base = sh.sources() + sh.n_ghosts;
        for (const int depth : kHaloPlanes) {
          const int lo = sh.origin[static_cast<std::size_t>(d)];
          const int plane = side == 0
                                ? (lo - depth + ext) % ext
                                : (lo + sh.local_dims[static_cast<std::size_t>(d)] - 1 + depth) %
                                      ext;
          for_each_box_site(sh.origin, sh.local_dims, d, plane, [&](const Coords& c) {
            const std::int64_t f = geom.full_index(c);
            if (geom.parity(f) != source) return;
            const auto slot = static_cast<std::int32_t>(sh.sources() + sh.n_ghosts);
            ghost_map.emplace(geom.eo_index(f), slot);
            msg.site_eo.push_back(geom.eo_index(f));
            ++sh.n_ghosts;
          });
        }
        sh.halo.push_back(std::move(msg));
      }
    }

    // Per-target gather table over the extended (owned + ghost) sources.
    sh.neighbors.resize(static_cast<std::size_t>(sh.targets() * kNeighbors));
    const auto& own = src_map[static_cast<std::size_t>(r)];
    for (std::int64_t t = 0; t < sh.targets(); ++t) {
      const Coords c = geom.coords(
          geom.full_index_of(target, sh.target_eo[static_cast<std::size_t>(t)]));
      for (int k = 0; k < kNdim; ++k) {
        for (int l = 0; l < kNlinks; ++l) {
          const Coords nc = geom.displace(c, k, kStencilOffsets[static_cast<std::size_t>(l)]);
          const std::int64_t ne = geom.eo_index(geom.full_index(nc));
          const auto it = in_block(sh, nc) ? own.find(ne) : ghost_map.find(ne);
          // Every off-block read was enumerated by a slab above; a miss here
          // would be a partitioner bug, so fail loudly.
          if (it == (in_block(sh, nc) ? own.end() : ghost_map.end())) {
            throw std::logic_error("Partitioner: unresolved stencil read");
          }
          sh.neighbors[static_cast<std::size_t>(t * kNeighbors + k * kNlinks + l)] = it->second;
        }
      }
    }
  }

  // Second pass: fill each message's sender-side gather list by looking the
  // wire sites up in the owner's source map.
  for (Shard& sh : shards_) {
    for (HaloMsg& msg : sh.halo) {
      msg.send_slots.reserve(msg.site_eo.size());
      const auto& owner = src_map[static_cast<std::size_t>(msg.peer)];
      for (const std::int64_t eo : msg.site_eo) {
        const auto it = owner.find(eo);
        if (it == owner.end()) {
          throw std::logic_error("Partitioner: ghost site not owned by its peer");
        }
        msg.send_slots.push_back(it->second);
      }
    }
  }
}

std::int64_t Partitioner::total_ghosts() const {
  std::int64_t n = 0;
  for (const Shard& sh : shards_) n += sh.n_ghosts;
  return n;
}

GridScore score_grid(const LatticeGeom& geom, const PartitionGrid& grid,
                     const gpusim::NodeTopology& topo, const WireFormat& wire) {
  if (grid.total() > topo.total_devices()) {
    throw std::invalid_argument("score_grid: grid needs " + std::to_string(grid.total()) +
                                " devices but the topology has " +
                                std::to_string(topo.total_devices()));
  }
  if (const std::string err = partition_error(geom, grid); !err.empty()) {
    throw std::invalid_argument(err);
  }

  GridScore sc;
  sc.grid = grid;

  Coords local{};
  std::int64_t local_volume = 1;
  for (int d = 0; d < kNdim; ++d) {
    local[static_cast<std::size_t>(d)] =
        geom.extent(d) / grid.devices[static_cast<std::size_t>(d)];
    local_volume *= local[static_cast<std::size_t>(d)];
  }

  // One directed slab per (rank, split dim, side): 3 planes, source-parity
  // half of the face cross-section, one colour vector per site at the wire
  // format's encoded width (48 / 24 / 12 B — docs/WIRE.md §2) — exactly
  // what the Partitioner enumerates, computed without building it.
  const auto slab_bytes = [&](int d) {
    const std::int64_t cross = local_volume / local[static_cast<std::size_t>(d)];
    return static_cast<std::int64_t>(kHaloPlanes.size()) * (cross / 2) *
           spinor_site_bytes(wire.spinor);
  };

  const int nranks = grid.total();
  std::vector<double> dev_egress_us(static_cast<std::size_t>(nranks), 0.0);
  std::vector<gpusim::LinkMessage> fabric_slabs;

  for (int r = 0; r < nranks; ++r) {
    const Coords rc = grid.coords_of(r);
    for (int d = 0; d < kNdim; ++d) {
      const int nd = grid.devices[static_cast<std::size_t>(d)];
      if (nd == 1) continue;
      const std::int64_t bytes = slab_bytes(d);
      for (int side = 0; side < 2; ++side) {
        Coords prc = rc;
        prc[static_cast<std::size_t>(d)] =
            (prc[static_cast<std::size_t>(d)] + (side == 0 ? nd - 1 : 1)) % nd;
        const int peer = grid.rank_of(prc);
        if (topo.same_node(r, peer)) {
          sc.intra_bytes += bytes;
          dev_egress_us[static_cast<std::size_t>(r)] += gpusim::nvlink_wire_time_us(bytes);
        } else {
          sc.inter_bytes += bytes;
          fabric_slabs.push_back({.src = r, .dst = peer, .bytes = bytes});
        }
      }
    }
  }

  // The exchange's own aggregation: one framed wire message per directed
  // (src, dst) pair, in first-appearance order.
  const std::vector<gpusim::AggregatedMessage> aggs =
      gpusim::aggregate_fabric_messages(topo, fabric_slabs);
  sc.inter_pairs = static_cast<int>(aggs.size());
  std::vector<double> node_egress_us(static_cast<std::size_t>(topo.nodes), 0.0);
  for (const gpusim::AggregatedMessage& a : aggs) {
    node_egress_us[static_cast<std::size_t>(topo.node_of(a.src))] +=
        gpusim::fabric_wire_time_us(a.wire_bytes());
  }

  double worst_dev = 0.0;
  for (const double t : dev_egress_us) worst_dev = std::max(worst_dev, t);
  double worst_node = 0.0;
  for (const double t : node_egress_us) worst_node = std::max(worst_node, t);
  sc.cost_us = worst_dev + worst_node;
  return sc;
}

std::vector<PartitionGrid> enumerate_grids(const LatticeGeom& geom, int devices) {
  std::vector<PartitionGrid> out;
  for (int d0 = 1; d0 <= devices; ++d0) {
    if (devices % d0 != 0) continue;
    const int n1 = devices / d0;
    for (int d1 = 1; d1 <= n1; ++d1) {
      if (n1 % d1 != 0) continue;
      const int n2 = n1 / d1;
      for (int d2 = 1; d2 <= n2; ++d2) {
        if (n2 % d2 != 0) continue;
        PartitionGrid g;
        g.devices = Coords{d0, d1, d2, n2 / d2};
        if (partition_error(geom, g).empty()) out.push_back(g);
      }
    }
  }
  return out;
}

tune::TuneKey grid_tune_key(const LatticeGeom& geom, const gpusim::NodeTopology& topo,
                            const WireFormat& wire) {
  tune::TuneKey key;
  key.arch = tune::arch_fingerprint(gpusim::a100());
  // Grid cost counts face bytes, which are parity-independent; "/even" is
  // the conventional signature for parity-free decisions.
  key.geom = tune::geom_signature(geom.extent(0), geom.extent(1), geom.extent(2),
                                  geom.extent(3), /*even_target=*/true);
  key.kernel = "grid";
  key.config = "cheapest";
  // The wire format rides the grammar's existing prec/recon fields; the
  // fp64/recon-18 default maps to the field defaults ("fp64", "-") so every
  // pre-wire-format cache entry keeps its canonical string.
  key.prec = wire_prec_field(wire);
  key.recon = wire_recon_field(wire);
  key.devices = topo.total_devices();
  key.topo = tune::topo_signature(topo.nodes, topo.devices_per_node);
  return key;
}

PartitionGrid choose_grid(const LatticeGeom& geom, const gpusim::NodeTopology& topo,
                          const WireFormat& wire) {
  const std::vector<PartitionGrid> grids = enumerate_grids(geom, topo.total_devices());
  if (grids.empty()) {
    throw std::invalid_argument("choose_grid: no grid of " +
                                std::to_string(topo.total_devices()) +
                                " devices can partition this lattice");
  }

  // One candidate per grid label, priced by its predicted exchange cost.
  // Strict < keeps the first of equal-cost candidates.  enumerate_grids
  // emits grids in ascending lexicographic order, so a symmetric tie (the
  // same arithmetic gives bit-identical costs) resolves to splitting the
  // later dimensions — t first, then z — the repo's strong_grid convention.
  std::vector<tune::Candidate> candidates;
  candidates.reserve(grids.size());
  for (const PartitionGrid& g : grids) candidates.push_back({.grid = g.label()});
  const tune::TuneKey key = grid_tune_key(geom, topo, wire);
  const tune::PriceFn price = [&](const tune::Candidate& c) {
    PartitionGrid g;
    if (!PartitionGrid::from_label(c.grid, g) || !partition_error(geom, g).empty()) {
      // Only a warm start can price a label that was not enumerated: the
      // cached entry is forged or stale.
      throw tune::ReplayMismatch(key.canonical() + " (grid '" + c.grid + "')",
                                 tune::TuneSession::current()->cache().find(key)->per_iter_us,
                                 0.0);
    }
    return score_grid(geom, g, topo, wire).cost_us;
  };
  PartitionGrid chosen;
  // The winner's label was parsed and validated when it was priced.
  (void)PartitionGrid::from_label(tune::tune_or_replay(key, candidates, price).entry.grid,
                                  chosen);
  return chosen;
}

}  // namespace milc::multidev
