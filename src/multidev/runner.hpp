// runner.hpp — multi-device Dslash execution with halo exchange and
// compute/comm overlap.
//
// One iteration per device follows the classic overlap schedule of the
// production MILC/QUDA multi-GPU codes:
//
//   pack faces ─┬─> wire transfer ──> unpack ghosts ─> boundary compute
//               └─> interior compute ────┘ (runs while messages fly)
//
//   device timeline:  P ──────────── I ─────────────┐
//   wire:             └─> exchange ──────── arrival A┤
//                                  unpack U ─> boundary B ─> iteration end
//
// Interior sites read no ghosts, so their kernel launches right after the
// packs and hides the exchange; the boundary range waits for max(interior
// done, halo arrival) + unpack.  Both ranges run the *unchanged* 1LP–4LP
// kernels: shard targets are renumbered interior-first, so the boundary
// launch is the same kernel over base pointers offset by n_interior.
//
// Exactness: every target site is computed entirely by its owner from
// gathered link values and source values that are bit-exact copies of the
// global arrays (ghosts included), with the identical kernel arithmetic —
// so the multi-device output equals the single-device output of the same
// strategy bit for bit, for any partition grid.  Tests assert == 0.0.
//
// One pipeline serves every mode and every grid, 1x1x1x1 included: run() is
// a loop around a single private pass — pack, interior, exchange rounds,
// unpack, boundary — whose queue mode is MultiDevRequest::mode and whose
// fault policy is the installed injector.
// Fault tolerance (docs/RESILIENCE.md "distributed failure model"): with a
// faultsim plan installed, halo payloads carry checksums, failed/corrupted
// messages are retransmitted with exponential backoff on the simulated
// clock under a per-exchange watchdog, per-shard kernel faults ride the
// retry + strategy-fallback ladder, and an unrecoverable device loss
// triggers failover onto a smaller partition grid.
// Elastic recovery (docs/RESILIENCE.md "Recovery taxonomy") layers on top:
// when the topology declares hot spares, a lost shard is re-replicated onto
// a spare over the priced interconnect instead of shrinking, and when the
// fault plan heals a stickily-lost resource the abandoned grid is rejoined
// live — both paths checksummed, retransmitting and charged simulated wire
// time.  With no plan installed the same pass runs one delivery round with
// no checksums, receiver-side copies or retries; a plan that injects nothing
// reproduces that timeline and output bit for bit.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "gpusim/fabric.hpp"
#include "gpusim/link.hpp"
#include "ksan/sanitizer.hpp"
#include "minisycl/queue.hpp"
#include "multidev/elastic.hpp"
#include "multidev/partition.hpp"

namespace milc::multidev {

/// One grid abandoned by a shrink failover, kept so a later heal of the
/// stickily-lost resource can rejoin it: each hardened attempt on a smaller
/// grid consults `heal/<what> @ <grid>` for the newest target, and on a heal
/// re-replicates shard state onto the re-admitted ranks and continues on it.
struct RejoinTarget {
  PartitionGrid grid{};
  std::string what;  ///< heal-site grammar: "device r<k>" | "node n<j>"
};

/// A multi-device run: which grid, which kernel configuration, what fabric.
struct MultiDevRequest {
  PartitionGrid grid{};
  RunRequest req{};  ///< strategy / order / preferred local size / variant
  /// Two-level interconnect.  With `topo.nodes == 1` (the default) the run
  /// is single-node: gpusim::dgx_a100_links() prices the exchange and
  /// nothing else changes.  With `topo.nodes > 1`, `topo` prices it
  /// (`topo.intra` is the island model): grid ranks are grouped into node
  /// groups of `topo.devices_per_node` devices, fabric-bound slabs are
  /// packed first and aggregated per neighbour, and the exchange is priced
  /// by simulate_topology_exchange.  The *output field* is identical either
  /// way — placement changes time, never values.
  gpusim::NodeTopology topo{};
  /// Halo wire format (docs/WIRE.md).  The fp64/recon-18 default is the
  /// exact wire: output, timeline and checksums are bit-for-bit the
  /// pre-wire-format behaviour.  Reduced formats shrink every priced wire
  /// byte (checksums, aggregation frames, corruption and retransmission all
  /// operate on the encoded size); the convert is fused into pack/unpack.
  WireFormat wire{};
  /// Live-rejoin stack (elastic recovery), newest last: grids earlier runs
  /// abandoned in shrink failovers.  run() continues this stack and returns
  /// what is left of it in MultiDevResult::rejoin, so a caller that applies
  /// many times (the sharded CG solver) hands it back to the next run and
  /// capacity returns mid-solve, newest grid first.
  std::vector<RejoinTarget> rejoin;
  /// Execution mode of the pipeline's per-device queues: profiled runs
  /// price the overlap timeline; functional runs (run_functional, the
  /// sharded CG's applies) execute the same pipeline with unpriced kernels.
  minisycl::ExecMode mode = minisycl::ExecMode::profiled;
};

/// One device's slice of the overlap timeline (per iteration, microseconds).
struct DeviceTimeline {
  int rank = 0;
  std::int64_t interior_sites = 0;
  std::int64_t boundary_sites = 0;
  std::int64_t halo_bytes_in = 0;
  double pack_us = 0.0;      ///< P: all outbound pack kernels + overheads
  double interior_us = 0.0;  ///< I: interior-range Dslash kernel
  double arrival_us = 0.0;   ///< A: last inbound message delivered
  double unpack_us = 0.0;    ///< U: all inbound unpack kernels + overheads
  double boundary_us = 0.0;  ///< B: boundary-range Dslash kernel
  double exposed_us = 0.0;   ///< comm not hidden: max(0, A - (P + I))
  double iter_us = 0.0;      ///< max(P + I, A) + U + B
};

/// The fate of one halo message in one delivery round of the hardened path.
struct ExchangeEvent {
  int round = 1;  ///< 1-based delivery round (> 1 means a retransmission)
  int src = 0;
  int dst = 0;
  std::string site;  ///< injector site name, "halo-exchange r<src>->r<dst>"
  bool dropped = false;
  bool corrupted = false;
  bool delayed = false;
  bool checksum_ok = true;  ///< payload checksum verified on receipt
  bool delivered = false;   ///< verified and queued for unpack
};

/// Structured per-exchange account of the hardened path (this is the
/// multidev-level report; gpusim::ExchangeReport is the raw wire schedule).
/// Cumulative across failover attempts within one run.
struct ExchangeReport {
  int rounds = 0;           ///< delivery rounds used (1 per message set when clean)
  int messages = 0;         ///< distinct messages attempted
  int retransmissions = 0;  ///< message deliveries beyond the first round
  int drops = 0;
  int corruptions = 0;
  int delays = 0;
  int checksum_failures = 0;  ///< corrupted payloads caught on receipt
  double backoff_us = 0.0;    ///< simulated backoff charged between rounds
  bool watchdog_fired = false;
  bool succeeded = false;  ///< every message verified within the round budget
  std::vector<ExchangeEvent> events;

  [[nodiscard]] bool clean() const {
    return retransmissions == 0 && drops == 0 && corruptions == 0 && delays == 0 &&
           checksum_failures == 0 && !watchdog_fired;
  }
  [[nodiscard]] std::string summary() const;
};

/// One failover: the partition grid abandoned, its replacement, and why.
struct FailoverEvent {
  PartitionGrid from{};
  PartitionGrid to{};
  std::string reason;
  int attempt = 0;  ///< 0-based grid attempt the failure occurred in
};

/// One per-shard kernel recovery action under the hardened path.
struct ShardRecovery {
  int rank = 0;
  std::string site;  ///< kernel site name ("dslash-interior r2", ...)
  Strategy strategy = Strategy::LP3_1;
  int attempt = 0;
  std::string action;  ///< "retry" | "fallback" | "abort"
  double backoff_us = 0.0;
};

/// One run's outcome; its ElasticTally counts the run's spare adoptions,
/// rejoins and re-replication traffic (whose time is also in recovery_us).
struct MultiDevResult : ElasticTally {
  std::string label;
  int devices = 1;
  double per_iter_us = 0.0;  ///< slowest device's iteration time
  double gflops = 0.0;       ///< total Dslash FLOPs / per_iter (paper convention)
  /// Fraction of the comm window hidden behind interior compute,
  /// sum_d(A - P - exposed) / sum_d(A - P); 1.0 when nothing is exposed.
  double overlap_efficiency = 1.0;
  /// Mean over devices of (pack + unpack + exposed wait) / per_iter.
  double comm_fraction = 0.0;
  /// Boundary targets / all targets (the surface-to-volume ratio that
  /// decides strong-scaling behaviour).
  double surface_fraction = 0.0;
  std::int64_t halo_bytes = 0;  ///< encoded wire bytes per iteration, all devices
  WireFormat wire{};            ///< wire format the run used (docs/WIRE.md)
  std::vector<DeviceTimeline> per_device;

  // --- topology accounting (single-node runs: nodes == 1, inter == 0) -----
  int nodes = 1;                        ///< node groups the run spanned
  std::int64_t intra_node_bytes = 0;    ///< slab bytes that stayed on NVLink
  std::int64_t inter_node_bytes = 0;    ///< fabric wire bytes incl. frame headers
  int fabric_messages = 0;              ///< aggregated fabric wire messages
  double intra_wire_us = 0.0;           ///< summed NVLink message wire times
  double inter_wire_us = 0.0;           ///< summed fabric aggregate wire times

  // --- hardened-path accounting (defaults = fault-free run) ---------------
  bool recovered = true;        ///< false: recovery exhausted, output invalid
  PartitionGrid final_grid{};   ///< grid actually used (differs after failover)
  double recovery_us = 0.0;     ///< simulated time lost to faults and backoffs
  ExchangeReport exchange;      ///< clean()/succeeded==false when fault-free
  std::vector<FailoverEvent> failovers;
  std::vector<ShardRecovery> shard_recoveries;
  /// The rejoin stack the run ends with (MultiDevRequest::rejoin, minus the
  /// targets it rejoined, plus the grids it shrank away from on a loss).
  std::vector<RejoinTarget> rejoin;
  /// Injector log entries observed during this run (fault enumeration).
  std::vector<faultsim::FaultEvent> faults;
};

/// One shard's gauge links: per family, the 36 complex values of every
/// target in the kernels' [target][k][j][i] order — DeviceGaugeLayout's
/// per-site blocks, gathered over the shard's targets.
using ShardLinks = std::array<std::vector<dcomplex>, kNlinks>;

/// The halo pipeline's state for one (problem, grid): the partition and
/// every shard's gauge links.  Both depend only on the gauge field and the
/// grid — never on the source or the wire format — so one layout serves
/// every apply on its grid, as a production rank keeps its gauge slab
/// resident for a whole solve.  Holds values only: nothing points into the
/// problem it was gathered from.
struct ShardLayout {
  ShardLayout(const DslashProblem& problem, const PartitionGrid& grid);

  Partitioner part;
  std::vector<ShardLinks> links;  ///< indexed by rank
};

/// Grid-keyed cache of one problem's ShardLayouts, each built on first use.
/// It belongs with whatever owns the problem across applies (ShardedCgSolver
/// holds one per parity problem), so cached layouts live and die with the
/// problem they were gathered from; copying the owner copies a valid cache.
class ShardLayouts {
 public:
  /// The layout of `grid`, built from `problem` on first use.  Every call
  /// must pass the cache's own problem: one of another geometry or target
  /// parity throws std::invalid_argument.
  const ShardLayout& get(const DslashProblem& problem, const PartitionGrid& grid);

  /// Layouts built so far: one per grid visited.
  [[nodiscard]] std::size_t size() const { return layouts_.size(); }

 private:
  std::map<Coords, ShardLayout> layouts_;  ///< node-based: references stay valid
};

/// Result of a tuned multi-device run (run_tuned): the winning execution
/// plus the tuning-cache entry it produced or replayed.
struct MultiDevTunedResult {
  MultiDevResult result;
  tune::TuneEntry entry;
  bool from_cache = false;    ///< true when a cache hit was replayed
  int candidates_tried = 0;   ///< 1 on a hit; the sweep size on a miss
};

class MultiDeviceRunner {
 public:
  explicit MultiDeviceRunner(gpusim::MachineModel machine = gpusim::a100(),
                             gpusim::Calibration cal = gpusim::default_calibration())
      : machine_(machine), cal_(cal) {}

  [[nodiscard]] const gpusim::MachineModel& machine() const { return machine_; }

  /// Run the halo pipeline in mreq.mode, hardened and failing over when a
  /// fault plan is installed.  The kernels execute for real (the output
  /// field is gathered into problem.c()); a profiled run prices the overlap
  /// timeline above from per-launch gpusim stats plus the link model.  Every
  /// grid runs the same pipeline: on 1x1x1x1 it is one interior launch over
  /// the whole lattice, whose per-iteration time and GFLOP/s equal
  /// DslashRunner::run's for the same request bit for bit.
  /// Each call builds its partitions and gathers its links into a fresh
  /// ShardLayouts that dies with the call.
  [[nodiscard]] MultiDevResult run(DslashProblem& problem, const MultiDevRequest& mreq) const;

  /// run() over the caller's layout cache: every grid the run visits — the
  /// requested one, a failover's smaller grid, a spare adoption's or a
  /// rejoin's — takes its partition and links from `layouts`, built there on
  /// first use.  Callers that apply one problem many times (the sharded CG)
  /// pass the same cache to every call, so each apply only gathers its
  /// sources, re-poisons its ghost slots and runs the pipeline.
  [[nodiscard]] MultiDevResult run(DslashProblem& problem, const MultiDevRequest& mreq,
                                   ShardLayouts& layouts) const;

  /// Autotuned profiled run: sweeps the paper pool of preferred local sizes
  /// for mreq.req's strategy/order on mreq's grid (each shard still coerces
  /// through tune::pick_local_size), consulting the installed tune::TuneSession
  /// under tune_key() first.  A hit re-prices the cached preferred size once
  /// and verifies its per-iteration time bit-for-bit (docs/TUNING.md).
  [[nodiscard]] MultiDevTunedResult run_tuned(DslashProblem& problem,
                                              const MultiDevRequest& mreq) const;

  /// The cache key run_tuned consults: kernel "mdslash"; strategy, order,
  /// variant and grid label in the config field; the topology signature.
  [[nodiscard]] tune::TuneKey tune_key(const DslashProblem& problem,
                                       const MultiDevRequest& mreq) const;

  /// run() with mode = functional on the default single-node link: the full
  /// halo protocol (pack -> exchange -> interior -> unpack -> boundary
  /// kernels); output lands in problem.c().  On the
  /// default fp64 wire the output is bit-for-bit the single-device result;
  /// a reduced wire rounds ghost values only (docs/WIRE.md §5).
  void run_functional(DslashProblem& problem, const PartitionGrid& grid, Strategy s,
                      IndexOrder o, int preferred_local_size,
                      const WireFormat& wire = {}) const;

  /// Serial per-shard evaluation in dslash_reference's exact loop order,
  /// through the same partition/halo data — bit-for-bit equal to the global
  /// dslash_reference, which makes it the halo protocol's exactness oracle.
  void run_reference(DslashProblem& problem, const PartitionGrid& grid, ColorField& out) const;

  /// ksan entry: replay every pack and unpack launch of one exchange under
  /// the sanitizer with exact region declarations (ghost-region OOB, races).
  [[nodiscard]] std::vector<ksan::SanitizerReport> sanitize_halo(
      DslashProblem& problem, const PartitionGrid& grid, const WireFormat& wire = {}) const;

  /// ksan entry for the *hardened* exchange data flow: pack -> receiver-side
  /// copy -> unpack-from-copy, with the first message of every shard
  /// redelivered once (a retransmission) and re-unpacked in a separate launch
  /// — the correct retry sequence, which must sanitize clean.  (Fusing both
  /// unpacks into one launch is a cross-group write-write race; the test
  /// suite demonstrates ksan catching exactly that.)
  [[nodiscard]] std::vector<ksan::SanitizerReport> sanitize_exchange(
      DslashProblem& problem, const PartitionGrid& grid, const WireFormat& wire = {}) const;

  /// dsan entry: record one full run — fault-free or hardened, whichever the
  /// installed fault plan selects — as a cluster-wide event graph (kernel
  /// launches, pack/unpack, send/recv/retransmit, checksum verdicts, wire
  /// schedule, failovers) and check it under vector-clock happens-before plus
  /// the protocol lints (docs/SANITIZER.md "Distributed checks").  Four
  /// reports, one per checker; every existing scenario must come back clean.
  [[nodiscard]] std::vector<ksan::SanitizerReport> dsan_check(
      DslashProblem& problem, const MultiDevRequest& mreq) const;

 private:
  /// One pass of the halo pipeline on the layout's grid, its fault policy
  /// set by the installed injector: pack, interior, exchange rounds, unpack
  /// and boundary phases, then the output gather and the overlap timeline.
  /// Returns the empty string, or why a fault exhausted its recovery budget.
  std::string run_pipeline(DslashProblem& problem, const MultiDevRequest& mreq,
                           const ShardLayout& layout, MultiDevResult& res) const;

  gpusim::MachineModel machine_;
  gpusim::Calibration cal_;
};

/// The next-smaller partition grid for failover: the lowest-index split
/// dimension has its device count divided by its smallest prime factor
/// (4 -> 2 -> 1, 3 -> 1), so every extent that divided the old grid divides
/// the new one and local extents only grow.  Identity on 1x1x1x1.
[[nodiscard]] PartitionGrid fallback_grid(const PartitionGrid& grid);

/// The topology a grid of `devices` ranks actually runs on: the original
/// node grouping while the device count still fills whole node groups,
/// otherwise one island (after failover the survivors are re-packed onto
/// as few nodes as possible; a remnant smaller than a node is all-NVLink).
[[nodiscard]] gpusim::NodeTopology effective_topology(const gpusim::NodeTopology& topo,
                                                     int devices);

/// Bytes a spare or rejoining device must receive to adopt rank `rank` of
/// the partitioner's grid: the gathered gauge slab (ShardLayout::links) plus
/// the extended source spinor (owned + ghost slots), the gauge slab priced
/// at the recon scheme's encoded link size and the spinor at the spinor
/// format's site size (docs/WIRE.md §3).  The fp64/recon-18 default wire
/// gives the historical exact count.
[[nodiscard]] std::int64_t shard_slab_bytes(const Partitioner& part, int rank,
                                            const WireFormat& wire);

}  // namespace milc::multidev
