#include "multidev/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/dispatch.hpp"
#include "dsan/check.hpp"
#include "lattice/io.hpp"
#include "multidev/halo_kernels.hpp"
#include "tune/candidates.hpp"
#include "tune/explorer.hpp"

namespace milc::multidev {

namespace {

/// Complex values of one site's links in one family: kNdim column-major
/// SU(3) matrices, contiguous in DeviceGaugeLayout and in ShardLinks.
constexpr std::int64_t kSiteLinkElems = kNdim * kColors * kColors;

// The hardened path's recovery budgets (docs/RESILIENCE.md "The hardened
// exchange").  Without a fault plan nothing fails, so none of them is spent.
constexpr int kMaxRounds = 4;             ///< delivery rounds per message set
constexpr double kWatchdogUs = 20'000.0;  ///< per-exchange watchdog on the simulated clock
constexpr int kMaxKernelAttempts = 4;     ///< shard kernel attempts per rung, incl. the first

constexpr int kPackLocalSize = 96;  ///< work-group size of the pack/unpack kernels

/// Simulated backoff before retry `n + 1` of a message, a slab or a kernel:
/// 50 us doubling per retry.
double backoff_us(int n) { return 50.0 * std::pow(2.0, n); }

/// One shard's links, copied block by block out of the problem's
/// DeviceGaugeLayout at each target's global eo index — bit-exact, which is
/// what makes multi-device output identical to single-device.
ShardLinks gather_links(const DslashProblem& p, const Shard& sh) {
  ShardLinks links;
  for (int l = 0; l < kNlinks; ++l) {
    const dcomplex* fam = p.device_gauge().family(l);
    auto& out = links[static_cast<std::size_t>(l)];
    out.resize(static_cast<std::size_t>(sh.targets() * kSiteLinkElems));
    for (std::int64_t t = 0; t < sh.targets(); ++t) {
      std::copy_n(fam + sh.target_eo[static_cast<std::size_t>(t)] * kSiteLinkElems,
                  kSiteLinkElems, out.begin() + t * kSiteLinkElems);
    }
  }
  return links;
}

/// Per-apply device data of one shard: the extended source field (owned
/// slots followed by ghost slots) and the per-target output.
struct ShardFields {
  std::vector<SU3Vector<dcomplex>> src;
  std::vector<SU3Vector<dcomplex>> dst;
};

/// Gather one shard's sources from the global problem (plain copies, so
/// bit-exact) and zero its output.  Ghost slots start every apply as NaN
/// poison: if the interior classification or the unpack protocol were
/// wrong, the poison would propagate into the output and the bit-for-bit
/// tests would fail loudly.
ShardFields build_fields(const DslashProblem& p, const Shard& sh) {
  ShardFields f;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  f.src.resize(static_cast<std::size_t>(sh.extended_sources()),
               SU3Vector<dcomplex>{{{nan, nan}, {nan, nan}, {nan, nan}}});
  for (std::int64_t s = 0; s < sh.sources(); ++s) {
    f.src[static_cast<std::size_t>(s)] = p.b()[sh.source_eo[static_cast<std::size_t>(s)]];
  }
  f.dst.assign(static_cast<std::size_t>(sh.targets()), SU3Vector<dcomplex>{});
  return f;
}

/// Argument block for a contiguous target range [first, first + count) of a
/// shard — the interior-first renumbering makes both kernel ranges plain
/// base-pointer offsets.
DslashArgs<dcomplex> range_args(const ShardLinks& links, ShardFields& f, const Shard& sh,
                                std::int64_t first, std::int64_t count) {
  DslashArgs<dcomplex> a;
  for (int l = 0; l < kNlinks; ++l) {
    a.links[l] = links[static_cast<std::size_t>(l)].data() + first * kSiteLinkElems;
  }
  a.b = f.src.data();
  a.c_out = f.dst.data() + first;
  a.neighbors = sh.neighbors.data() + first * kNeighbors;
  a.sites = count;
  return a;
}

template <typename W>
std::vector<minisycl::AddressRegion> pack_regions(const HaloPackKernelT<W>& k,
                                                  std::int64_t src_elems) {
  return {{k.src, src_elems * static_cast<std::int64_t>(sizeof(SU3Vector<dcomplex>))},
          {k.slots, k.count * static_cast<std::int64_t>(sizeof(std::int32_t))},
          {k.wire, k.count * kColors * static_cast<std::int64_t>(sizeof(W))}};
}

template <typename W>
std::vector<minisycl::AddressRegion> unpack_regions(const HaloUnpackKernelT<W>& k,
                                                    std::int64_t field_elems) {
  return {{k.wire, k.count * kColors * static_cast<std::int64_t>(sizeof(W))},
          {k.field, field_elems * static_cast<std::int64_t>(sizeof(SU3Vector<dcomplex>))}};
}

/// Dispatch a wire-format-generic callable over the spinor format's wire
/// element type.  `fn` receives a WireCodec-compatible element as a type
/// tag: fn(dcomplex{}) / fn(scomplex{}) / fn(hcomplex{}).
template <typename Fn>
decltype(auto) with_wire_element(SpinorWire w, Fn&& fn) {
  switch (w) {
    case SpinorWire::fp64: return fn(dcomplex{});
    case SpinorWire::fp32: return fn(scomplex{});
    case SpinorWire::fp16: return fn(hcomplex{});
  }
  return fn(dcomplex{});
}

/// The fp16 wire's per-message range scale: 1 / max|component| over the
/// values about to be packed (1.0 for empty or all-zero payloads, and on
/// every other format).  Computed on the sender from the same slots the
/// pack kernel gathers, so both ends agree by construction — the scale
/// rides the message header, not the payload bytes (docs/WIRE.md §2).
double message_scale(SpinorWire w, const SU3Vector<dcomplex>* src, const HaloMsg& hm) {
  if (w != SpinorWire::fp16) return 1.0;
  double peak = 0.0;
  for (const std::int32_t s : hm.send_slots) {
    for (int c = 0; c < kColors; ++c) {
      peak = std::max(peak, std::abs(src[s].c[c].re));
      peak = std::max(peak, std::abs(src[s].c[c].im));
    }
  }
  return peak > 0.0 ? 1.0 / peak : 1.0;
}

/// The pack kernel of `msg`: gathers the sender's owned sources named by
/// msg.send_slots into `wire`, encoded as W with the message's range scale.
template <typename W>
HaloPackKernelT<W> pack_kernel(const ShardFields& sender, const HaloMsg& msg,
                               std::vector<std::byte>& wire, double scale) {
  return {.src = sender.src.data(),
          .slots = msg.send_slots.data(),
          .wire = reinterpret_cast<W*>(wire.data()),
          .count = msg.count(),
          .scale = scale};
}

/// The unpack kernel of `msg`: decodes `payload` into the receiver's ghost
/// slots [msg.ghost_base, msg.ghost_base + msg.count()).
template <typename W>
HaloUnpackKernelT<W> unpack_kernel(const std::vector<std::byte>& payload, ShardFields& receiver,
                                   const HaloMsg& msg, double scale) {
  return {.wire = reinterpret_cast<const W*>(payload.data()),
          .field = receiver.src.data(),
          .ghost_base = msg.ghost_base,
          .count = msg.count(),
          .inv_scale = 1.0 / scale};
}

minisycl::LaunchSpec halo_spec(std::int64_t count, int local_size,
                               const minisycl::KernelTraits& traits) {
  minisycl::LaunchSpec spec;
  spec.global_size = halo_global_size(count, local_size);
  spec.local_size = local_size;
  spec.shared_bytes = 0;
  spec.num_phases = 1;
  spec.traits = traits;
  return spec;
}

/// Discard a queue's buffered async errors (the retry loops classify faults
/// from stats.fault at the submission site; the buffered exceptions are the
/// same information).
void drain_errors(minisycl::queue& q) {
  try {
    q.wait_and_throw();
  } catch (const minisycl::exception&) {
    // already handled via stats.fault
  }
}

/// The unique message site name, shared between gpusim's injector consult,
/// the ExchangeReport and docs/RESILIENCE.md.
std::string exchange_site(int src, int dst) {
  return "halo-exchange r" + std::to_string(src) + "->r" + std::to_string(dst);
}

std::string pack_site(int src, int dst) {
  return "halo-pack r" + std::to_string(src) + "->r" + std::to_string(dst);
}

std::string unpack_site(int src, int dst) {
  return "halo-unpack r" + std::to_string(src) + "->r" + std::to_string(dst);
}

/// Install dsan kernel hooks on every shard queue (rank = queue index).  The
/// hook fires only on the *successful* submission path, so retried failures
/// never enter the trace; call sites refine the raw Kernel event with the
/// protocol-accurate site and memory spans via Recorder::annotate.
void hook_queues_for_dsan(dsan::Recorder* rec,
                          std::vector<std::unique_ptr<minisycl::queue>>& queues) {
  if (rec == nullptr) return;
  for (std::size_t d = 0; d < queues.size(); ++d) {
    const int rank = static_cast<int>(d);
    queues[d]->set_kernel_hook(
        [rec, rank](const std::string& name, const gpusim::KernelStats&) {
          rec->kernel(rank, name);
        });
  }
}

/// The ksan replay behind sanitize_halo and sanitize_exchange: every pack
/// and unpack launch of one exchange under exact region declarations.  The
/// hardened flow adds the receiver-side copy the unpack reads, and
/// redelivers the first message of every shard once (a retransmission
/// re-unpacked in a separate launch).  The specs stay region-free: ksan
/// takes a spec's regions as valid memory, and the pipeline's
/// pack_regions/unpack_regions span the whole extended source field, which
/// would hide the stray ghost reads and writes these tighter lists catch.
std::vector<ksan::SanitizerReport> sanitize_flow(DslashProblem& problem,
                                                 const PartitionGrid& grid,
                                                 const WireFormat& wire_fmt, bool hardened) {
  const Partitioner part(problem.geom(), grid, problem.target_parity());
  std::vector<ShardFields> fields;
  fields.reserve(part.shards().size());
  for (const Shard& sh : part.shards()) fields.push_back(build_fields(problem, sh));

  const SpinorWire sw = wire_fmt.spinor;
  std::vector<ksan::SanitizerReport> reports;
  for (const Shard& sh : part.shards()) {
    ShardFields& f = fields[static_cast<std::size_t>(sh.rank)];
    for (std::size_t mi = 0; mi < sh.halo.size(); ++mi) {
      const HaloMsg& msg = sh.halo[mi];
      const Shard& peer_sh = part.shard(msg.peer);
      ShardFields& peer = fields[static_cast<std::size_t>(msg.peer)];
      const std::string suffix = " r" + std::to_string(msg.peer) + "->r" +
                                 std::to_string(sh.rank) + " dim" + std::to_string(msg.dim) +
                                 (msg.side == 0 ? "-" : "+");
      const double scale = message_scale(sw, peer.src.data(), msg);
      std::vector<std::byte> wire(static_cast<std::size_t>(msg.wire_bytes(sw)));

      with_wire_element(sw, [&](auto tag) {
        using W = decltype(tag);
        // Pack: reads must stay inside the sender's *owned* sources (reading
        // a ghost slot would be an ordering bug), writes inside the wire.
        // The fused convert-pack kernel is sanitized at the requested
        // format, so its accesses are checked against the *encoded* buffer.
        const HaloPackKernelT<W> pack = pack_kernel<W>(peer, msg, wire, scale);
        ksan::SanitizeConfig pack_cfg;
        pack_cfg.regions.push_back(
            ksan::region_of(peer.src.data(), static_cast<std::size_t>(peer_sh.sources())));
        pack_cfg.regions.push_back(
            ksan::region_of(msg.send_slots.data(), msg.send_slots.size()));
        pack_cfg.regions.push_back(ksan::region_of(wire.data(), wire.size()));
        reports.push_back(
            ksan::sanitize_launch(halo_spec(msg.count(), kPackLocalSize, pack.traits()),
                                  pack, std::move(pack_cfg), "halo-pack" + suffix));

        // Unpack: reads inside the payload, writes *only* into this
        // message's ghost span — declaring exactly that span turns any stray
        // write (owned sites, another message's ghosts) into a reported OOB.
        // Hardened: the delivery lands on a receiver-side copy (the sender
        // buffer stays pristine for retransmission); a redelivery's repeated
        // ghost writes are ordered by the launch boundary, hence clean.
        std::vector<std::byte> rx;
        const int deliveries = (hardened && mi == 0) ? 2 : 1;
        for (int delivery = 0; delivery < deliveries; ++delivery) {
          if (hardened) rx.assign(wire.begin(), wire.end());
          const std::vector<std::byte>& payload = hardened ? rx : wire;
          const HaloUnpackKernelT<W> unpack = unpack_kernel<W>(payload, f, msg, scale);
          ksan::SanitizeConfig unpack_cfg;
          unpack_cfg.regions.push_back(ksan::region_of(payload.data(), payload.size()));
          unpack_cfg.regions.push_back(ksan::region_of(
              f.src.data() + msg.ghost_base, static_cast<std::size_t>(msg.count())));
          reports.push_back(ksan::sanitize_launch(
              halo_spec(msg.count(), kPackLocalSize, unpack.traits()), unpack,
              std::move(unpack_cfg),
              "halo-unpack" + suffix + (delivery > 0 ? " retry" : "")));
        }
      });
    }
  }
  return reports;
}

}  // namespace

ShardLayout::ShardLayout(const DslashProblem& problem, const PartitionGrid& grid)
    : part(problem.geom(), grid, problem.target_parity()) {
  links.reserve(part.shards().size());
  for (const Shard& sh : part.shards()) links.push_back(gather_links(problem, sh));
}

const ShardLayout& ShardLayouts::get(const DslashProblem& problem, const PartitionGrid& grid) {
  if (!layouts_.empty()) {
    const Partitioner& any = layouts_.begin()->second.part;
    if (any.geom().dims() != problem.geom().dims() ||
        any.target() != problem.target_parity()) {
      throw std::invalid_argument("ShardLayouts: cached layouts belong to another problem");
    }
  }
  auto it = layouts_.find(grid.devices);
  if (it == layouts_.end()) it = layouts_.try_emplace(grid.devices, problem, grid).first;
  return it->second;
}

std::string ExchangeReport::summary() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ExchangeReport: %s  rounds=%d  messages=%d  retx=%d  drop=%d  corrupt=%d  "
                "delay=%d  checksum-fail=%d  backoff=%.1f us%s\n",
                succeeded ? "SUCCEEDED" : "FAILED", rounds, messages, retransmissions, drops,
                corruptions, delays, checksum_failures, backoff_us,
                watchdog_fired ? "  WATCHDOG" : "");
  out += buf;
  for (const ExchangeEvent& e : events) {
    std::snprintf(buf, sizeof(buf), "  round %d %s: %s%s%s%s%s\n", e.round, e.site.c_str(),
                  e.delivered ? "delivered" : "failed", e.dropped ? " [dropped]" : "",
                  e.corrupted ? " [corrupted]" : "", e.delayed ? " [delayed]" : "",
                  e.checksum_ok ? "" : " [checksum mismatch]");
    out += buf;
  }
  return out;
}

PartitionGrid fallback_grid(const PartitionGrid& grid) {
  PartitionGrid next = grid;
  for (int d = 0; d < 4; ++d) {
    const int n = next.devices[static_cast<std::size_t>(d)];
    if (n <= 1) continue;
    int factor = n;  // smallest prime factor
    for (int f = 2; f * f <= n; ++f) {
      if (n % f == 0) {
        factor = f;
        break;
      }
    }
    next.devices[static_cast<std::size_t>(d)] = n / factor;
    return next;
  }
  return next;
}

gpusim::NodeTopology effective_topology(const gpusim::NodeTopology& topo, int devices) {
  gpusim::NodeTopology t = topo;
  if (topo.multi_node() && devices > topo.devices_per_node &&
      devices % topo.devices_per_node == 0) {
    t.nodes = devices / topo.devices_per_node;
  } else {
    t.nodes = 1;
    t.devices_per_node = devices;
  }
  return t;
}

tune::TuneKey MultiDeviceRunner::tune_key(const DslashProblem& problem,
                                          const MultiDevRequest& mreq) const {
  tune::TuneKey key;
  key.arch = tune::arch_fingerprint(machine_);
  const LatticeGeom& g = problem.geom();
  key.geom = tune::geom_signature(g.extent(0), g.extent(1), g.extent(2), g.extent(3),
                                  problem.target_parity() == Parity::Even);
  key.kernel = "mdslash";
  key.config = std::string(to_string(mreq.req.strategy)) + " " +
               to_string(mreq.req.order) + " " + variant_info(mreq.req.variant).name +
               " grid " + mreq.grid.label();
  // Wire format rides the grammar's prec/recon fields; the fp64/recon-18
  // default maps to the field defaults so pre-wire-format entries replay.
  key.prec = wire_prec_field(mreq.wire);
  key.recon = wire_recon_field(mreq.wire);
  key.devices = mreq.grid.total();
  key.topo = tune::topo_signature(mreq.topo.nodes, mreq.topo.devices_per_node);
  return key;
}

MultiDevTunedResult MultiDeviceRunner::run_tuned(DslashProblem& problem,
                                                 const MultiDevRequest& mreq) const {
  const tune::TuneKey key = tune_key(problem, mreq);

  std::vector<tune::Candidate> candidates;
  for (int ls : paper_local_sizes(mreq.req.strategy, mreq.req.order, problem.sites())) {
    tune::Candidate c;
    c.local_size = ls;
    c.order = to_string(mreq.req.order);
    c.grid = mreq.grid.label();
    candidates.push_back(c);
  }

  std::map<int, MultiDevResult> priced;
  const tune::PriceFn price = [&](const tune::Candidate& c) {
    MultiDevRequest r = mreq;
    r.req.local_size = c.local_size;
    MultiDevResult res = run(problem, r);
    const double t = res.per_iter_us;
    priced[c.local_size] = std::move(res);
    return t;
  };

  const tune::TuneOutcome out = tune::tune_or_replay(key, candidates, price);
  MultiDevTunedResult tr;
  tr.entry = out.entry;
  tr.from_cache = out.from_cache;
  tr.candidates_tried = out.candidates_tried;
  tr.result = std::move(priced.at(out.entry.local_size));
  return tr;
}

std::vector<ksan::SanitizerReport> MultiDeviceRunner::dsan_check(
    DslashProblem& problem, const MultiDevRequest& mreq) const {
  dsan::ScopedRecorder sr;
  (void)run(problem, mreq);
  return dsan::check_all(sr.rec.trace(), mreq.grid.label());
}

std::int64_t shard_slab_bytes(const Partitioner& part, int rank, const WireFormat& wire) {
  const Shard& sh = part.shard(rank);
  // Gauge links ride the wire in the recon frame (docs/WIRE.md §3); spinors
  // in the spinor wire format.  k18 + fp64 reproduces the historical
  // 144 B/link + 48 B/site numbers bit-for-bit.
  const std::int64_t gauge =
      sh.targets() * kNlinks * kNdim * gauge_link_bytes(wire.gauge);
  const std::int64_t spinor = sh.extended_sources() * spinor_site_bytes(wire.spinor);
  return gauge + spinor;
}

namespace {

/// Priced, checksummed, retransmitting wire transfer of one shard's slabs
/// onto a spare or rejoining device.  Mirrors the hardened halo exchange:
/// one injector consult per round, dsan send/recv/checksum per transmission,
/// exponential backoff between rounds, every microsecond charged to the
/// elastic accounting on `res`.  Returns the dsan uid of the verified
/// delivery (0 without a recorder), or nothing when the round budget is
/// spent — the caller then falls back to shrinking the grid.
std::optional<std::uint64_t> transfer_slab(faultsim::Injector* inj,
                                           const gpusim::NodeTopology& topo, int src, int dst,
                                           const std::string& site, std::int64_t bytes,
                                           MultiDevResult& res) {
  dsan::Recorder* rec = dsan::Recorder::current();
  const bool cross = topo.multi_node() && !topo.same_node(src, dst);
  double spent = 0.0;
  std::optional<std::uint64_t> verified;
  for (int round = 1; round <= kMaxRounds; ++round) {
    const faultsim::LinkVerdict v =
        inj->on_message(site, static_cast<std::uint64_t>(bytes));
    double wire = cross ? gpusim::fabric_wire_time_us(topo.fabric, bytes)
                        : gpusim::wire_time_us(topo.intra, src % topo.devices_per_node,
                                               dst % topo.devices_per_node, bytes);
    if (v.delayed) wire = wire * v.bw_factor + v.extra_latency_us;
    spent += wire;
    res.rereplicated_bytes += bytes;
    std::uint64_t uid = 0;
    if (rec != nullptr) {
      uid = rec->send(src, dst, site, round,
                      dsan::MemSpan{0, static_cast<std::uint64_t>(bytes)}, v.dropped, cross,
                      topo.multi_node() ? topo.node_of(src) : 0,
                      topo.multi_node() ? topo.node_of(dst) : 0);
      if (!v.dropped) {
        rec->recv(uid, /*delivered=*/!v.corrupted);
        rec->checksum(uid, !v.corrupted);
      }
    }
    if (!v.dropped && !v.corrupted) {
      verified = uid;
      break;
    }
    spent += backoff_us(round - 1);
  }
  res.rereplication_us += spent;
  res.recovery_us += spent;
  return verified;
}

/// One shard adoption: rank `rank` of the adopting grid receives its slabs
/// from survivor `src`; `note` is the dsan rejoin note.
struct Adoption {
  int src = 0;
  int rank = 0;
  std::string note;
};

/// One attempt's resource loss: a node group or a device, and the ranks of
/// the grid it took down.
struct Loss {
  std::string what;  ///< heal-site grammar: "node n<j>" | "device r<k>"
  int first = 0;     ///< the lost ranks are [first, first + count)
  int count = 0;
  bool node = false;
};

/// Re-replicate shard state onto a hot spare, a standby node or the ranks
/// of a rejoined grid: one transfer_slab per adoption over `topo`, each
/// verified transfer followed by the dsan rejoin -> resync handshake.  Stops
/// at the first transfer that spends its round budget and returns false —
/// the caller then shrinks the grid instead.
bool adopt_shards(faultsim::Injector* inj, const gpusim::NodeTopology& topo,
                  const Partitioner& part, const std::vector<Adoption>& adoptions,
                  const std::string& resync_note, const MultiDevRequest& mreq,
                  MultiDevResult& res) {
  dsan::Recorder* rec = dsan::Recorder::current();
  for (const Adoption& a : adoptions) {
    const std::optional<std::uint64_t> msg = transfer_slab(
        inj, topo, a.src, a.rank,
        "rereplicate r" + std::to_string(a.rank) + " @ " + part.grid().label(),
        shard_slab_bytes(part, a.rank, mreq.wire), res);
    if (!msg.has_value()) return false;
    if (rec != nullptr) {
      rec->rejoin(a.rank, a.note);
      rec->resync(a.rank, *msg, resync_note);
    }
  }
  return true;
}

/// One halo message, in (receiver, message) order — the order every phase
/// walks, and the order the injector is consulted in.
struct Slab {
  const HaloMsg* msg = nullptr;
  int dst = 0;
  std::vector<std::byte> wire{};  ///< sender's pack buffer, never modified after packing
  std::vector<std::byte> rx{};    ///< receiver-side copy (hardened only)
  double scale = 1.0;
  double depart_us = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t tx = 0;  ///< dsan uid of the accepted delivery
  bool delivered = false;
};

/// One pass of the halo pipeline on the layout's grid and the state its
/// phases share.  The fault policy: an installed injector adds payload
/// checksums, the receiver-side copies they verify, and retransmit rounds.
/// Without one, every retry loop runs exactly once and the first round
/// delivers.  Each phase returns the empty string, or why a fault exhausted
/// its recovery budget, and adds its microseconds to res.per_device.
class HaloPass {
 public:
  HaloPass(DslashProblem& problem, const MultiDevRequest& mreq, const ShardLayout& layout,
           MultiDevResult& res, const gpusim::MachineModel& machine,
           const gpusim::Calibration& cal);

  /// Every device packs its outbound faces (pack_us).
  std::string pack_faces();
  /// One Dslash launch per shard over its interior or its boundary targets
  /// (interior_us / boundary_us).
  std::string dslash_range(bool boundary);
  /// Deliver -> verify checksum -> retransmit, round by round (arrival_us).
  std::string exchange_rounds();
  /// Unpack every verified payload into its ghost slots (unpack_us).
  std::string unpack_ghosts();
  /// Gather the output into the problem and assemble the overlap timeline.
  void gather_and_time();
  /// Zero every device's timeline, keeping its rank.
  void clear_timeline();

 private:
  template <typename Launch>
  bool submit_shard(int rank, const std::string& name, std::span<const RunRequest> rungs,
                    const Launch& launch, double& us_acc);
  [[nodiscard]] bool crosses_fabric(int a, int b) const {
    return topo_.multi_node() && !topo_.same_node(a, b);
  }
  [[nodiscard]] int node_of(int r) const { return topo_.multi_node() ? topo_.node_of(r) : 0; }
  DeviceTimeline& timeline(int rank) { return res_.per_device[static_cast<std::size_t>(rank)]; }

  DslashProblem& problem_;
  const MultiDevRequest& mreq_;
  const ShardLayout& layout_;
  MultiDevResult& res_;
  const std::vector<Shard>& shards_;
  const int ndev_;
  const gpusim::NodeTopology topo_;
  const SpinorWire sw_;
  const bool hardened_;
  dsan::Recorder* const rec_;
  std::vector<ShardFields> fields_;
  std::vector<std::unique_ptr<minisycl::queue>> queues_;
  std::vector<Slab> slabs_;
};

HaloPass::HaloPass(DslashProblem& problem, const MultiDevRequest& mreq,
                   const ShardLayout& layout, MultiDevResult& res,
                   const gpusim::MachineModel& machine, const gpusim::Calibration& cal)
    : problem_(problem),
      mreq_(mreq),
      layout_(layout),
      res_(res),
      shards_(layout.part.shards()),
      ndev_(layout.part.grid().total()),
      topo_(effective_topology(mreq.topo, ndev_)),
      sw_(mreq.wire.spinor),
      hardened_(faultsim::Injector::current() != nullptr),
      rec_(dsan::Recorder::current()) {
  fields_.reserve(shards_.size());
  for (const Shard& sh : shards_) fields_.push_back(build_fields(problem_, sh));
  const VariantInfo& vi = variant_info(mreq_.req.variant);
  for (int d = 0; d < ndev_; ++d) {
    queues_.push_back(
        std::make_unique<minisycl::queue>(mreq_.mode, vi.queue_order, machine, cal));
  }
  const std::string grid = layout_.part.grid().label();
  if (rec_ != nullptr) {
    rec_->barrier("attempt @ " + grid);
    hook_queues_for_dsan(rec_, queues_);
  }

  res_.label = config_label(mreq_.req.strategy, mreq_.req.order, mreq_.req.local_size) +
               " @ " + grid;
  res_.devices = ndev_;
  clear_timeline();
  res_.per_iter_us = 0.0;
  res_.halo_bytes = 0;

  for (const Shard& sh : shards_) {
    for (const HaloMsg& msg : sh.halo) slabs_.push_back(Slab{.msg = &msg, .dst = sh.rank});
  }
}

void HaloPass::clear_timeline() {
  res_.per_device.assign(static_cast<std::size_t>(ndev_), DeviceTimeline{});
  for (int d = 0; d < ndev_; ++d) timeline(d).rank = d;
}

// Bounded retry of one shard kernel on rank's queue: up to
// kMaxKernelAttempts launches of each rung in turn, `launch(queue, rung)`
// submitting one.  A Dslash range walks fallback_requests (the per-shard
// analogue of ResilientRunner's ladder); a halo kernel is the one-rung case.
// A failed attempt logs "retry" and charges a backoff; a rung's last one
// logs "fallback", or "abort" on the last rung, and charges none.
template <typename Launch>
bool HaloPass::submit_shard(int rank, const std::string& name,
                            std::span<const RunRequest> rungs, const Launch& launch,
                            double& us_acc) {
  minisycl::queue& q = *queues_[static_cast<std::size_t>(rank)];
  for (std::size_t rung = 0; rung < rungs.size(); ++rung) {
    for (int a = 0; a < kMaxKernelAttempts; ++a) {
      const gpusim::KernelStats st = launch(q, rungs[rung]);
      if (st.fault.empty()) {
        us_acc += st.duration_us + q.launch_overhead_us();
        return true;
      }
      drain_errors(q);
      const bool last_attempt = a + 1 == kMaxKernelAttempts;
      const bool last_rung = rung + 1 == rungs.size();
      const double backoff = last_attempt ? 0.0 : backoff_us(a);
      res_.recovery_us += backoff;
      us_acc += backoff;
      res_.shard_recoveries.push_back(ShardRecovery{
          rank, name, rungs[rung].strategy, a,
          last_attempt ? (last_rung ? "abort" : "fallback") : "retry", backoff});
    }
  }
  return false;
}

// Fabric-bound slabs pack first (pass 0) so their aggregates hit the slow
// pipe at fabric_pack_us while the NVLink slabs are still packing — the
// two-phase schedule.  Single-node runs have no pass-0 slabs.  Wire buffers
// hold *encoded* bytes of the request's wire format: the pack kernels write
// the wire element type directly, and checksums, corruption,
// retransmission and pricing all operate on those bytes.
std::string HaloPass::pack_faces() {
  std::vector<double> fabric_pack_us(static_cast<std::size_t>(ndev_), 0.0);
  for (int pass = 0; pass < 2; ++pass) {
    for (Slab& s : slabs_) {
      const HaloMsg& msg = *s.msg;
      if ((pass == 0) != crosses_fabric(msg.peer, s.dst)) continue;
      const auto src = static_cast<std::size_t>(msg.peer);
      s.wire.resize(static_cast<std::size_t>(msg.wire_bytes(sw_)));
      s.scale = message_scale(sw_, fields_[src].src.data(), msg);
      const std::string name = pack_site(msg.peer, s.dst);
      bool ok = true;
      with_wire_element(sw_, [&](auto tag) {
        using W = decltype(tag);
        const HaloPackKernelT<W> pack = pack_kernel<W>(fields_[src], msg, s.wire, s.scale);
        minisycl::LaunchSpec spec =
            halo_spec(msg.count(), kPackLocalSize, HaloPackKernelT<W>::traits());
        spec.regions = pack_regions(pack, shards_[src].extended_sources());
        ok = submit_shard(
            msg.peer, name, {&mreq_.req, 1},
            [&](minisycl::queue& q, const RunRequest&) { return q.submit(spec, pack, name); },
            timeline(msg.peer).pack_us);
      });
      if (!ok) return "pack kernel '" + name + "' exhausted its retries";
      if (rec_ != nullptr) {
        rec_->annotate(msg.peer, name,
                       {dsan::span_of(fields_[src].src.data(),
                                      static_cast<std::size_t>(shards_[src].sources())),
                        dsan::span_of(msg.send_slots.data(), msg.send_slots.size())},
                       {dsan::span_of(s.wire.data(), s.wire.size())});
      }
      // FNV-1a is not cryptographic: it only has to catch the injector's bit
      // flips, and one flipped bit always perturbs the multiply-xor chain.
      if (hardened_) s.checksum = io::fnv1a(s.wire.data(), s.wire.size());
    }
    if (pass == 0) {
      for (int d = 0; d < ndev_; ++d) {
        fabric_pack_us[static_cast<std::size_t>(d)] = timeline(d).pack_us;
      }
    }
  }
  // A device puts its messages on the wire once the packs feeding them are
  // done (bulk departure, the cudaMemcpyPeerAsync-after-pack pattern);
  // fabric-bound slabs depart at the end of the fabric pack pass.
  for (Slab& s : slabs_) {
    const int src = s.msg->peer;
    s.depart_us = crosses_fabric(src, s.dst) ? fabric_pack_us[static_cast<std::size_t>(src)]
                                             : timeline(src).pack_us;
  }
  return {};
}

// The interior range reads only owned sources and runs while the messages
// fly; the boundary range reads the extended field, ghosts included, after
// the unpack.  Host execution order (interior before unpack) also proves
// the interior range reads no ghost slot: ghosts are still NaN poison then.
std::string HaloPass::dslash_range(bool boundary) {
  const std::string what = boundary ? "boundary" : "interior";
  for (const Shard& sh : shards_) {
    const std::int64_t first = boundary ? sh.n_interior : 0;
    const std::int64_t count = boundary ? sh.n_boundary : sh.n_interior;
    const std::int64_t reads = boundary ? sh.extended_sources() : sh.sources();
    if (count == 0) continue;
    const auto rank = static_cast<std::size_t>(sh.rank);
    const std::string name = "dslash-" + what + " r" + std::to_string(sh.rank);
    ShardFields& f = fields_[rank];
    const DslashArgs<dcomplex> args = range_args(layout_.links[rank], f, sh, first, count);
    DeviceTimeline& t = timeline(sh.rank);
    const bool ok = submit_shard(
        sh.rank, name, fallback_requests(mreq_.req, count),
        [&](minisycl::queue& q, const RunRequest& r) {
          const VariantInfo& vi = variant_info(r.variant);
          const int ls = tune::pick_local_size(r.strategy, r.order, r.local_size, count);
          return with_dslash_kernel(args, r.strategy, r.order, vi.use_syclcplx,
                                    [&](const auto& kernel) {
                                      using K = std::decay_t<decltype(kernel)>;
                                      return q.submit(
                                          dslash_launch<K>(args, sh.extended_sources(),
                                                           r.strategy, ls, &vi),
                                          kernel, name);
                                    });
        },
        boundary ? t.boundary_us : t.interior_us);
    if (!ok) return what + " kernel '" + name + "' exhausted the strategy ladder";
    if (rec_ != nullptr) {
      rec_->annotate(sh.rank, name, {dsan::span_of(f.src.data(), static_cast<std::size_t>(reads))},
                     {dsan::span_of(f.dst.data() + first, static_cast<std::size_t>(count))});
    }
  }
  return {};
}

// Hardened deliveries land on a receiver-side copy, so corruption never
// destroys the retransmission source and a verified payload is unpacked
// exactly once.  A fault-free run has one round and unpacks the sender's
// buffer directly; its report stays at the defaults.
std::string HaloPass::exchange_rounds() {
  ExchangeReport unreported;
  ExchangeReport& xr = hardened_ ? res_.exchange : unreported;
  xr.messages += static_cast<int>(slabs_.size());
  double wire_clock = 0.0;
  std::size_t remaining = slabs_.size();
  for (int round = 1; remaining > 0; ++round) {
    if (round > kMaxRounds) {
      xr.succeeded = false;
      return "exchange exhausted " + std::to_string(kMaxRounds) + " delivery rounds (" +
             std::to_string(remaining) + " undelivered)";
    }
    ++xr.rounds;
    std::vector<Slab*> pend;
    for (Slab& s : slabs_) {
      if (!s.delivered) pend.push_back(&s);
    }
    if (round > 1) xr.retransmissions += static_cast<int>(pend.size());

    std::vector<gpusim::LinkMessage> msgs;
    msgs.reserve(pend.size());
    for (const Slab* s : pend) {
      msgs.push_back({.src = s->msg->peer,
                      .dst = s->dst,
                      .bytes = s->msg->wire_bytes(sw_),
                      .depart_us = std::max(s->depart_us, wire_clock),
                      .site = exchange_site(s->msg->peer, s->dst)});
    }
    // Over a multi-node topology the round's messages ride the two-level
    // exchange: intra-node ones keep their per-message fault sites, inter-
    // node ones are aggregated per neighbour and consulted per aggregate.
    // Retransmissions re-enter here round after round, so a pending frame
    // joins the next round's (smaller) aggregate — retransmit-over-fabric.
    if (topo_.multi_node()) {
      const gpusim::FabricExchangeReport frep =
          gpusim::simulate_topology_exchange(topo_, msgs);
      res_.intra_node_bytes += frep.intra_bytes;
      res_.inter_node_bytes += frep.inter_bytes;
      res_.fabric_messages += frep.inter_messages;
      res_.intra_wire_us += frep.intra_wire_us;
      res_.inter_wire_us += frep.inter_wire_us;
    } else {
      res_.intra_node_bytes +=
          simulate_exchange(gpusim::dgx_a100_links(), msgs, ndev_).total_bytes;
    }

    // Transmissions enter the trace after the wire simulation so the drop
    // verdict rides the Send event (a retransmit round records fresh uids).
    std::vector<std::uint64_t> round_tx(msgs.size(), 0);
    if (rec_ != nullptr) {
      for (std::size_t j = 0; j < msgs.size(); ++j) {
        const gpusim::LinkMessage& lm = msgs[j];
        const std::vector<std::byte>& wire = pend[j]->wire;
        round_tx[j] = rec_->send(lm.src, lm.dst, lm.site, round,
                                 dsan::span_of(wire.data(), wire.size()), lm.dropped,
                                 crosses_fabric(lm.src, lm.dst), node_of(lm.src),
                                 node_of(lm.dst));
      }
    }

    double round_end = wire_clock;
    for (std::size_t j = 0; j < msgs.size(); ++j) {
      Slab& s = *pend[j];
      const gpusim::LinkMessage& lm = msgs[j];
      round_end = std::max(round_end, lm.done_us);
      ExchangeEvent ev;
      ev.round = round;
      ev.src = lm.src;
      ev.dst = lm.dst;
      ev.site = lm.site;
      ev.dropped = lm.dropped;
      ev.corrupted = lm.corrupted;
      ev.delayed = lm.delayed;
      xr.drops += lm.dropped ? 1 : 0;
      xr.corruptions += lm.corrupted ? 1 : 0;
      xr.delays += lm.delayed ? 1 : 0;
      if (!lm.dropped) {
        std::vector<dsan::MemSpan> rx_span;
        if (hardened_) {
          s.rx = s.wire;
          if (lm.corrupted) {
            // The bit flip lands in the *encoded* wire bytes — on a reduced
            // format that is the compressed payload, so the checksum below
            // (also over encoded bytes) catches it before any decode runs.
            faultsim::flip_bit(s.rx.data(), s.rx.size(), lm.corrupt_key);
          }
          ev.checksum_ok = io::fnv1a(s.rx.data(), s.rx.size()) == s.checksum;
          rx_span.push_back(dsan::span_of(s.rx.data(), s.rx.size()));
        }
        if (rec_ != nullptr) {
          rec_->recv(round_tx[j], ev.checksum_ok, {dsan::span_of(s.wire.data(), s.wire.size())},
                     std::move(rx_span));
          if (hardened_) rec_->checksum(round_tx[j], ev.checksum_ok);
          if (ev.checksum_ok) s.tx = round_tx[j];
        }
        if (ev.checksum_ok) {
          s.delivered = true;
          --remaining;
          ev.delivered = true;
          DeviceTimeline& t = timeline(lm.dst);
          t.arrival_us = std::max(t.arrival_us, lm.done_us);
        } else {
          ++xr.checksum_failures;
        }
      }
      xr.events.push_back(std::move(ev));
    }

    if (remaining > 0) {
      const double backoff = backoff_us(round - 1);
      xr.backoff_us += backoff;
      res_.recovery_us += backoff;
      wire_clock = round_end + backoff;
      if (wire_clock > kWatchdogUs) {
        xr.watchdog_fired = true;
        return "exchange watchdog expired after round " + std::to_string(round) + " (" +
               std::to_string(remaining) + " undelivered)";
      }
    }
  }
  xr.succeeded = true;
  return {};
}

std::string HaloPass::unpack_ghosts() {
  for (const Slab& s : slabs_) {
    const HaloMsg& msg = *s.msg;
    const auto dst = static_cast<std::size_t>(s.dst);
    const std::vector<std::byte>& payload = hardened_ ? s.rx : s.wire;
    const std::string name = unpack_site(msg.peer, s.dst);
    bool ok = true;
    with_wire_element(sw_, [&](auto tag) {
      using W = decltype(tag);
      const HaloUnpackKernelT<W> unpack = unpack_kernel<W>(payload, fields_[dst], msg, s.scale);
      minisycl::LaunchSpec spec =
          halo_spec(msg.count(), kPackLocalSize, HaloUnpackKernelT<W>::traits());
      spec.regions = unpack_regions(unpack, shards_[dst].extended_sources());
      ok = submit_shard(
          s.dst, name, {&mreq_.req, 1},
          [&](minisycl::queue& q, const RunRequest&) { return q.submit(spec, unpack, name); },
          timeline(s.dst).unpack_us);
    });
    if (!ok) return "unpack kernel '" + name + "' exhausted its retries";
    if (rec_ != nullptr) {
      rec_->annotate(s.dst, name, {dsan::span_of(payload.data(), payload.size())},
                     {dsan::span_of(fields_[dst].src.data() + msg.ghost_base,
                                    static_cast<std::size_t>(msg.count()))},
                     s.tx);
    }
  }
  return {};
}

void HaloPass::gather_and_time() {
  for (const Shard& sh : shards_) {
    const ShardFields& f = fields_[static_cast<std::size_t>(sh.rank)];
    for (std::int64_t t = 0; t < sh.targets(); ++t) {
      problem_.c()[sh.target_eo[static_cast<std::size_t>(t)]] =
          f.dst[static_cast<std::size_t>(t)];
    }
  }

  double comm_window = 0.0;
  double hidden = 0.0;
  std::int64_t boundary_total = 0;
  for (const Shard& sh : shards_) {
    DeviceTimeline& t = timeline(sh.rank);
    t.interior_sites = sh.n_interior;
    t.boundary_sites = sh.n_boundary;
    t.halo_bytes_in = sh.halo_wire_bytes(sw_);
    t.exposed_us = std::max(0.0, t.arrival_us - (t.pack_us + t.interior_us));
    t.iter_us = std::max(t.pack_us + t.interior_us, t.arrival_us) + t.unpack_us + t.boundary_us;
    res_.per_iter_us = std::max(res_.per_iter_us, t.iter_us);
    comm_window += std::max(0.0, t.arrival_us - t.pack_us);
    hidden += std::max(0.0, t.arrival_us - t.pack_us) - t.exposed_us;
    res_.halo_bytes += t.halo_bytes_in;
    boundary_total += sh.n_boundary;
  }
  res_.overlap_efficiency = comm_window > 0.0 ? hidden / comm_window : 1.0;
  res_.comm_fraction = 0.0;
  if (res_.per_iter_us > 0.0) {
    double comm_frac_sum = 0.0;
    for (const DeviceTimeline& t : res_.per_device) {
      comm_frac_sum += (t.pack_us + t.unpack_us + t.exposed_us) / res_.per_iter_us;
    }
    res_.comm_fraction = comm_frac_sum / ndev_;
  }
  res_.surface_fraction =
      static_cast<double>(boundary_total) / static_cast<double>(problem_.sites());
  res_.gflops =
      res_.per_iter_us > 0.0 ? problem_.flops() / (res_.per_iter_us * 1e-6) / 1e9 : 0.0;
}

}  // namespace

MultiDevResult MultiDeviceRunner::run(DslashProblem& problem,
                                      const MultiDevRequest& mreq) const {
  ShardLayouts layouts;
  return run(problem, mreq, layouts);
}

MultiDevResult MultiDeviceRunner::run(DslashProblem& problem, const MultiDevRequest& mreq,
                                      ShardLayouts& layouts) const {
  faultsim::Injector* inj = faultsim::Injector::current();
  // A profiled run prices the requested placement, so the topology must fit
  // the grid.  (Functional and recovering runs adopt effective_topology.)
  if (mreq.mode == minisycl::ExecMode::profiled && mreq.topo.multi_node() &&
      mreq.topo.total_devices() != mreq.grid.total()) {
    throw std::invalid_argument("MultiDeviceRunner: topology has " +
                                std::to_string(mreq.topo.total_devices()) +
                                " devices but the grid needs " +
                                std::to_string(mreq.grid.total()));
  }

  const std::size_t log_mark = inj != nullptr ? inj->log().size() : 0;
  MultiDevResult res;
  PartitionGrid grid = mreq.grid;
  // Hot-spare pools (elastic recovery): device spares per node group of the
  // *requested* topology, plus whole standby nodes behind the fabric.
  int device_spares = mreq.topo.spares.devices_per_node * std::max(1, mreq.topo.nodes);
  int node_spares = mreq.topo.spares.nodes;
  // Grids abandoned by shrink failovers, newest last; a heal of the lost
  // resource pops one and rejoins.  Continues the caller's stack when a
  // previous run (e.g. an earlier CG apply) already shrank.
  std::vector<RejoinTarget>& rejoinable = res.rejoin;
  rejoinable = mreq.rejoin;
  // Shrink onto `next`; a sticky resource loss (`lost` non-empty) stays
  // rejoinable should the fault plan heal it.
  const auto shrink = [&](const PartitionGrid& next, std::string reason, int attempt,
                          std::string lost) {
    res.failovers.push_back(FailoverEvent{grid, next, std::move(reason), attempt});
    if (dsan::Recorder* rec = dsan::Recorder::current()) {
      rec->failover(res.failovers.back().reason);
    }
    if (!lost.empty()) rejoinable.push_back(RejoinTarget{grid, std::move(lost)});
    grid = next;
  };

  for (int attempt = 0;; ++attempt) {
    // With no injector nothing can fail: the first pipeline pass is the run.
    if (inj != nullptr) {
      const int ndev = grid.total();
      const gpusim::NodeTopology topo = effective_topology(mreq.topo, ndev);

      // Live rejoin: when capacity was shrunk away, ask the heal stream
      // whether the stickily-lost resource returned to service; if so,
      // re-replicate shard state onto the re-admitted ranks (priced over the
      // wire, checksummed) and continue on the larger grid.  The rejoined
      // ranks compute nothing before their resync — the RejoinBeforeResync
      // protocol check enforces exactly that window.
      if (!rejoinable.empty() &&
          inj->on_heal_check("heal/" + rejoinable.back().what + " @ " + grid.label())) {
        const RejoinTarget tgt = rejoinable.back();
        std::vector<Adoption> adoptions;
        for (int r = ndev; r < tgt.grid.total(); ++r) {
          // A survivor re-sends the slabs it holds.
          adoptions.push_back(
              {r % ndev, r, tgt.what + " healed; rank r" + std::to_string(r) + " re-admitted"});
        }
        if (adopt_shards(inj, effective_topology(mreq.topo, tgt.grid.total()),
                         layouts.get(problem, tgt.grid).part, adoptions,
                         "replica verified on " + tgt.grid.label(), mreq, res)) {
          ++res.rejoins;
          res.capacity_restored += tgt.grid.total() - ndev;
          res.failovers.push_back(FailoverEvent{
              grid, tgt.grid, tgt.what + " healed; rejoined " + tgt.grid.label(), attempt});
          rejoinable.pop_back();
          grid = tgt.grid;
          continue;
        }
        // Transfer budget spent: stay on the small grid.
      }

      // Resource health: one consult per node group (multi-node runs), then
      // one per device, per attempt; the first hit is the attempt's loss.  A
      // lost device has no spare on a 1x1x1x1 grid, so single-device runs
      // skip the device consults (ResilientRunner is the single-device
      // recovery story).
      std::optional<Loss> loss;
      for (int n = 0; topo.multi_node() && n < topo.nodes && !loss; ++n) {
        std::string what = "node n" + std::to_string(n);
        if (inj->on_node_check(what + " @ " + grid.label()))
          loss = Loss{std::move(what), n * topo.devices_per_node, topo.devices_per_node, true};
      }
      for (int d = 0; ndev > 1 && d < ndev && !loss; ++d) {
        std::string what = "device r" + std::to_string(d);
        if (inj->on_device_check(what + " @ " + grid.label()))
          loss = Loss{std::move(what), d, 1, false};
      }
      if (loss) {
        // The spare pool of the loss's kind adopts every lost rank — a hot
        // spare on the island, or a standby node over the fabric — and the
        // grid keeps its full width.  Only when no spare (or no transfer
        // budget) is left does the grid shrink below the survivor count, in
        // one failover.
        int& spares = loss->node ? node_spares : device_spares;
        const std::string spare = loss->node ? "standby node" : "hot spare";
        if (spares > 0) {
          std::vector<Adoption> adoptions;
          for (int r = loss->first; r < loss->first + loss->count; ++r) {
            // The survivor `count` ranks on re-sends the lost rank's slabs.
            adoptions.push_back(
                {(r + loss->count) % ndev, r, spare + " adopts rank r" + std::to_string(r)});
          }
          if (adopt_shards(inj, topo, layouts.get(problem, grid).part, adoptions,
                           "replica verified on " + spare, mreq, res)) {
            --spares;
            ++res.spares_consumed;
            res.failovers.push_back(FailoverEvent{
                grid, grid, loss->what + " lost; re-replicated onto " + spare, attempt});
            continue;
          }
        }
        PartitionGrid next = grid;
        while (next.total() > ndev - loss->count && next.total() > 1) next = fallback_grid(next);
        std::string reason = loss->what + " lost";
        if (loss->node) reason += " (" + std::to_string(loss->count) + " devices)";
        shrink(next, std::move(reason), attempt, loss->what);
        continue;
      }
    }

    // One Dslash application is stateless (inputs b/cfg are never mutated),
    // so "replay from the last consistent state" is a rerun from the inputs
    // on the surviving grid; the sharded CG solver layers checkpointed
    // *solver* state on top of this.
    std::string reason = run_pipeline(problem, mreq, layouts.get(problem, grid), res);
    if (reason.empty()) break;
    if (grid.total() == 1) {
      // Nothing left to shrink to: recovery exhausted.
      res.recovered = false;
      res.failovers.push_back(FailoverEvent{grid, grid, reason + " (no surviving grid)",
                                            attempt});
      break;
    }
    shrink(fallback_grid(grid), std::move(reason), attempt, {});
  }

  res.final_grid = grid;
  res.wire = mreq.wire;
  res.devices = grid.total();
  res.nodes = effective_topology(mreq.topo, grid.total()).nodes;
  if (inj != nullptr) res.faults = inj->log_since(log_mark);
  return res;
}

std::string MultiDeviceRunner::run_pipeline(DslashProblem& problem,
                                            const MultiDevRequest& mreq,
                                            const ShardLayout& layout,
                                            MultiDevResult& res) const {
  HaloPass pass(problem, mreq, layout, res, machine_, cal_);
  std::string reason = pass.pack_faces();
  // Interior compute runs while the exchange's messages fly.
  if (reason.empty()) reason = pass.dslash_range(/*boundary=*/false);
  if (reason.empty()) reason = pass.exchange_rounds();
  if (reason.empty()) reason = pass.unpack_ghosts();
  if (reason.empty()) reason = pass.dslash_range(/*boundary=*/true);
  if (reason.empty()) {
    pass.gather_and_time();
  } else {
    pass.clear_timeline();  // a failed pass reports no per-device times
  }
  return reason;
}

void MultiDeviceRunner::run_functional(DslashProblem& problem, const PartitionGrid& grid,
                                       Strategy s, IndexOrder o, int preferred_local_size,
                                       const WireFormat& wire) const {
  MultiDevRequest mreq;
  mreq.grid = grid;
  mreq.req = RunRequest{.strategy = s, .order = o, .local_size = preferred_local_size};
  mreq.wire = wire;
  mreq.mode = minisycl::ExecMode::functional;
  (void)run(problem, mreq);
}

void MultiDeviceRunner::run_reference(DslashProblem& problem, const PartitionGrid& grid,
                                      ColorField& out) const {
  const ShardLayout layout(problem, grid);
  const std::vector<Shard>& shards = layout.part.shards();
  std::vector<ShardFields> fields;
  fields.reserve(shards.size());
  for (const Shard& sh : shards) fields.push_back(build_fields(problem, sh));

  // Serial exchange: copy every wire site straight from owner to ghost slot.
  for (const Shard& sh : shards) {
    ShardFields& f = fields[static_cast<std::size_t>(sh.rank)];
    for (const HaloMsg& msg : sh.halo) {
      const ShardFields& peer = fields[static_cast<std::size_t>(msg.peer)];
      for (std::int64_t i = 0; i < msg.count(); ++i) {
        f.src[static_cast<std::size_t>(msg.ghost_base + i)] =
            peer.src[static_cast<std::size_t>(msg.send_slots[static_cast<std::size_t>(i)])];
      }
    }
  }

  // Per-shard evaluation in dslash_reference's exact loop order (k outer,
  // l inner, matvec + signed accumulate) over the gathered shard data —
  // the same values in the same operations, so bit-for-bit equal.
  for (const Shard& sh : shards) {
    const auto rank = static_cast<std::size_t>(sh.rank);
    const DslashArgs<dcomplex> a =
        range_args(layout.links[rank], fields[rank], sh, 0, sh.targets());
    for (std::int64_t t = 0; t < sh.targets(); ++t) {
      SU3Vector<dcomplex> acc;
      for (int k = 0; k < kNdim; ++k) {
        for (int l = 0; l < kNlinks; ++l) {
          SU3Matrix<dcomplex> m;
          for (int j = 0; j < kColors; ++j) {
            for (int i = 0; i < kColors; ++i) m.e[i][j] = *a.link_elem(l, t, k, i, j);
          }
          const std::int32_t n = a.neighbors[t * kNeighbors + k * kNlinks + l];
          const SU3Vector<dcomplex> v = matvec(m, a.b[n]);
          const double sign = kStencilSigns[static_cast<std::size_t>(l)];
          acc += sign * v;
        }
      }
      out[sh.target_eo[static_cast<std::size_t>(t)]] = acc;
    }
  }
}

std::vector<ksan::SanitizerReport> MultiDeviceRunner::sanitize_halo(
    DslashProblem& problem, const PartitionGrid& grid, const WireFormat& wire_fmt) const {
  return sanitize_flow(problem, grid, wire_fmt, /*hardened=*/false);
}

std::vector<ksan::SanitizerReport> MultiDeviceRunner::sanitize_exchange(
    DslashProblem& problem, const PartitionGrid& grid, const WireFormat& wire_fmt) const {
  return sanitize_flow(problem, grid, wire_fmt, /*hardened=*/true);
}

}  // namespace milc::multidev
