// faultsim.hpp — seeded, deterministic fault injection for the simulated
// runtime.
//
// Production lattice-QCD services run Dslash at cluster scale where node
// faults are routine (DeTar et al. 2017; Gottlieb 2001): allocations fail
// under memory pressure, launches are rejected, ECC events corrupt memory,
// kernels hang.  The simulator is deterministic, so those faults must be
// *injected* to be testable — and injected deterministically, so a chaos
// test that failed once replays bit-for-bit from its seed.
//
// A `FaultPlan` is installed process-wide (see Injector / ScopedFaultInjection);
// `minisycl::malloc_device` and `minisycl::queue::submit` consult it at every
// fault site.  With no plan installed the consult is one null-pointer check —
// the fault-free timeline is untouched (tested bit-for-bit in
// tests/test_resilient_runner.cpp).
//
// Draw determinism: every fault decision hashes (seed, fault kind, per-kind
// occurrence counter) through splitmix64.  Decisions therefore depend only on
// the plan and on how many times each site kind was reached — never on wall
// clock, address layout or call interleaving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace faultsim {

enum class FaultKind {
  alloc_fail,    ///< malloc_device returns nullptr / throws
  launch_fail,   ///< kernel launch rejected, kernel body never runs
  sticky_fault,  ///< transient device fault; clears after `sticky_burst` retries
  bit_flip,      ///< ECC-like single-bit corruption of a registered device region
  hang,          ///< kernel never completes; watchdog expires on the simulated timeline
  msg_drop,      ///< link message lost in flight; never delivered
  msg_corrupt,   ///< link message delivered with a flipped payload bit
  msg_delay,     ///< link latency spike + degraded bandwidth for one message
  device_loss,   ///< whole simulated device lost; triggers failover
  node_loss,     ///< whole node group lost (all its devices at once)
  serve_fault,   ///< serving-tier control-plane fault (admission, dispatch, probe)
  cache_fault,   ///< tuning-cache I/O fault (load/store of the persisted cache)
  heal,          ///< a stickily-lost device/node returns to service (device_return)
};

inline constexpr std::size_t kNumFaultKinds = 13;

[[nodiscard]] const char* to_string(FaultKind k);

/// Deterministically flip one bit of `bytes` bytes at `data`, picked by
/// hashing `key` — the same helper the injector uses internally, exposed so
/// link-level corruption can be applied by whoever owns the wire payload
/// (gpusim prices messages; the multidev runner owns the receive buffers).
void flip_bit(void* data, std::size_t bytes, std::uint64_t key);

/// Byte extent eligible for bit-flip corruption (the caller registers the
/// exact field extents; ResilientRunner registers its output field).
struct MemRegion {
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
};

/// Deterministic "fail exactly there" entry, for tests that need a specific
/// fault at a specific occurrence rather than a probability.
struct ScheduledFault {
  FaultKind kind = FaultKind::launch_fail;
  std::uint64_t index = 0;      ///< fire on the index-th occurrence (0-based)
  std::uint64_t repeat = 1;     ///< ...and the repeat-1 following occurrences
  std::string site_filter;      ///< substring of the site name; empty = any site
};

/// How malloc_device reports an injected allocation failure.
enum class AllocFailMode {
  return_null,      ///< SYCL USM convention: nullptr
  throw_bad_alloc,  ///< operator-new convention: std::bad_alloc
};

struct FaultPlan {
  std::uint64_t seed = 0;

  // Per-site-kind probabilities (0 disables the kind entirely).
  double p_alloc_fail = 0.0;
  double p_launch_fail = 0.0;
  double p_sticky = 0.0;
  double p_bit_flip = 0.0;
  double p_hang = 0.0;
  double p_msg_drop = 0.0;
  double p_msg_corrupt = 0.0;
  double p_msg_delay = 0.0;
  double p_device_loss = 0.0;
  double p_node_loss = 0.0;
  double p_serve = 0.0;
  double p_cache_fault = 0.0;
  double p_heal = 0.0;

  AllocFailMode alloc_fail_mode = AllocFailMode::return_null;

  /// A delayed message pays this much extra latency and has its bandwidth
  /// divided by `delay_bw_factor` — a congestion spike, not a loss.
  double delay_latency_us = 25.0;
  double delay_bw_factor = 4.0;

  /// A sticky fault fires for at most this many *consecutive* launches of the
  /// same kernel site, then clears — the defining property of a transient
  /// error: bounded retry always gets past it.
  int sticky_burst = 2;

  /// Simulated watchdog: a hung kernel charges this much simulated time
  /// before the timeout surfaces; a kernel whose simulated duration exceeds
  /// it is reported hung even without an injected hang.
  double watchdog_timeout_us = 50'000.0;

  /// Explicit schedule, consulted before the probabilistic draws.
  std::vector<ScheduledFault> schedule;
};

/// One injected fault, as recorded in the injector's log.
struct FaultEvent {
  FaultKind kind = FaultKind::launch_fail;
  std::string site;             ///< kernel name, or "malloc_device"
  std::uint64_t occurrence = 0; ///< per-site-kind counter value when it fired
  std::string detail;
};

/// Outcome of consulting the injector at a kernel-launch site.
struct LaunchVerdict {
  bool faulted = false;
  FaultKind kind = FaultKind::launch_fail;  ///< valid when faulted
  double charge_us = 0.0;  ///< extra simulated time (watchdog timeout for hangs)
};

/// Outcome of consulting the injector for one link message.  A message can be
/// delayed *and* corrupted; a dropped message is only dropped (nothing
/// arrives, so there is no payload left to corrupt).
struct LinkVerdict {
  bool dropped = false;
  bool corrupted = false;
  bool delayed = false;
  double extra_latency_us = 0.0;  ///< added to the link latency when delayed
  double bw_factor = 1.0;         ///< divides the link bandwidth when delayed
  std::uint64_t corrupt_key = 0;  ///< feed to flip_bit() on the received payload

  [[nodiscard]] bool clean() const { return !dropped && !corrupted && !delayed; }
};

/// Process-wide injector.  Thread-safe like usm::Registry; at most one plan
/// is installed at a time.
class Injector {
 public:
  /// The installed injector, or nullptr when fault injection is off.  This is
  /// the only call on the fault-free fast path.
  [[nodiscard]] static Injector* current();

  static void install(FaultPlan plan);
  static void uninstall();

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  // --- consult points (called by minisycl) --------------------------------

  /// True when this allocation must fail; the event is logged.  Every
  /// allocation consults the site "malloc_device", so a schedule entry's
  /// `site_filter` must match that name.
  [[nodiscard]] bool should_fail_alloc(std::size_t bytes);

  /// Decide the fate of one kernel launch attempt (schedule first, then the
  /// probabilistic draws, priority launch_fail > sticky > hang).
  [[nodiscard]] LaunchVerdict on_kernel_launch(const std::string& name);

  /// Report a completed launch whose *simulated* duration is known; returns a
  /// hang verdict when the duration exceeds the plan's watchdog.  The hang is
  /// logged at the occurrence of the site's latest on_kernel_launch — the
  /// launch it completes.
  [[nodiscard]] LaunchVerdict on_kernel_complete(const std::string& name, double duration_us);

  /// Flip one deterministic-random bit inside the registered target regions
  /// when the plan draws a bit_flip for this completed launch.  Returns true
  /// when memory was changed (silently — no error is raised; that is the
  /// point of ECC-like corruption).
  bool maybe_corrupt(const std::string& name);

  /// Decide the fate of one link message at a named exchange site (e.g.
  /// "halo-exchange r0->r1").  Schedule entries win over probabilistic draws;
  /// occurrence counters are per site like kernel launches, so a
  /// `site_filter` can target "the 2nd message on this link" exactly.
  /// Priority when several kinds draw true: drop > corrupt; delay composes
  /// with corrupt but not with drop.
  [[nodiscard]] LinkVerdict on_message(const std::string& site, std::uint64_t bytes);

  /// True when the named device is lost at this consult (one consult per
  /// device per exchange round).  A lost device stays lost for the caller to
  /// handle — the injector only decides the instant of failure.
  [[nodiscard]] bool on_device_check(const std::string& site);

  /// True when the named *node* (a whole NVLink group of devices) is lost at
  /// this consult — the fabric-tier analogue of on_device_check, with its own
  /// draw stream.  Losing a node loses every device in its group at once.
  [[nodiscard]] bool on_node_check(const std::string& site);

  /// True when a serving-tier control-plane step fails at this consult.
  /// Sites follow the `serve/*` grammar (docs/RESILIENCE.md): the admission
  /// queue (`serve/queue …`), the dispatcher (`serve/dispatch …`) and
  /// circuit-breaker probes (`serve/probe …`) each consult once per step,
  /// with their own draw stream so a traffic scenario can storm the control
  /// plane without perturbing kernel or wire draws.
  [[nodiscard]] bool on_serve_check(const std::string& site);

  /// True when a tuning-cache I/O step fails at this consult.  Sites follow
  /// the `tune/*` grammar (docs/TUNING.md): `tune/load <path>` and
  /// `tune/save <path>` each consult once per attempt, with their own draw
  /// stream so cache chaos never perturbs kernel, wire, or serve draws.  A
  /// faulted load falls back to cold tuning — never to a crash.
  [[nodiscard]] bool on_cache_check(const std::string& site);

  /// True when the resource named by `site` *returns to service* at this
  /// consult — the inverse of on_device_check/on_node_check.  Sticky
  /// device_loss/node_loss faults today only clear implicitly (a new attempt
  /// re-consults); heal makes the return an explicit, schedulable event, so
  /// a chaos scenario can kill a device at tick N and bring it back at tick
  /// M.  Sites follow the `heal/*` grammar (docs/RESILIENCE.md):
  /// `heal/device r<k> @ <grid>` from the hardened runner,
  /// `heal/device d<k>` / `heal/node n<j>` from the serve tier.  Occurrence
  /// counters are per site, so `ScheduledFault{heal, index, repeat,
  /// "heal/device r1"}` fires on exactly the index-th consult of that
  /// resource; the dedicated `heal_counter_` draw stream means heal chaos
  /// never perturbs loss, wire, or serve draws (seeded-replay determinism is
  /// tested in tests/test_faultsim.cpp).
  [[nodiscard]] bool on_heal_check(const std::string& site);

  /// Register the byte extents eligible for bit-flip corruption.  A flip's
  /// FaultEvent detail names its region by index in this list.
  void set_corruption_targets(std::vector<MemRegion> regions);

  // --- observability -------------------------------------------------------

  [[nodiscard]] std::vector<FaultEvent> log() const;
  [[nodiscard]] std::uint64_t injected_total() const;
  [[nodiscard]] std::uint64_t injected(FaultKind k) const;
  /// Log entries appended at or after `mark` (a previous log().size()).
  [[nodiscard]] std::vector<FaultEvent> log_since(std::size_t mark) const;
  void clear_log();

 private:
  explicit Injector(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] double draw(FaultKind kind, std::uint64_t counter) const;
  /// The first schedule entry whose kind is one of `kinds`, whose filter
  /// matches `site` and whose window covers `occurrence`; nullptr if none.
  [[nodiscard]] const ScheduledFault* scheduled(std::initializer_list<FaultKind> kinds,
                                                const std::string& site,
                                                std::uint64_t occurrence) const;
  /// The yes/no consult behind every on_*_check: takes the site's
  /// occurrence, advances the kind's draw `stream`, checks the schedule and
  /// then draws against `p`, and logs a hit as "<what> <occurrence>".
  [[nodiscard]] bool consult(FaultKind kind, double p, std::uint64_t& stream,
                             const std::string& site, const char* what);
  void record(FaultKind kind, const std::string& site, std::uint64_t occurrence,
              std::string detail);

  FaultPlan plan_;
  std::vector<MemRegion> targets_;
  std::vector<FaultEvent> events_;
  std::uint64_t counts_[kNumFaultKinds] = {};

  std::uint64_t alloc_counter_ = 0;
  std::uint64_t launch_counter_ = 0;   ///< all launch attempts (draw stream)
  std::uint64_t complete_counter_ = 0; ///< completed launches (bit-flip stream)
  std::uint64_t message_counter_ = 0;  ///< all link messages (link draw stream)
  std::uint64_t device_counter_ = 0;   ///< all device-loss consults
  std::uint64_t node_counter_ = 0;     ///< all node-loss consults
  std::uint64_t serve_counter_ = 0;    ///< all serve-tier consults
  std::uint64_t cache_counter_ = 0;    ///< all tuning-cache I/O consults
  std::uint64_t heal_counter_ = 0;     ///< all heal (device-return) consults

  // Per-kernel-site state (keyed by kernel name).
  struct SiteState {
    std::uint64_t launches = 0;          ///< occurrence counter for schedules
    int consecutive_sticky = 0;          ///< clears a sticky burst
  };
  std::vector<std::pair<std::string, SiteState>> sites_;
  [[nodiscard]] SiteState& site_state(const std::string& name);
};

/// RAII install/uninstall, for tests and benches.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultPlan plan) { Injector::install(std::move(plan)); }
  ~ScopedFaultInjection() { Injector::uninstall(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  [[nodiscard]] Injector& injector() const { return *Injector::current(); }
};

}  // namespace faultsim
