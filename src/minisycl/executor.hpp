// executor.hpp — runs a phased kernel over an nd_range.
//
// Two modes:
//  * execute_functional: plain host loops, FastLane, no simulation — used by
//    correctness tests and the examples.
//  * execute_profiled: wave-scheduled, warp-granular execution with
//    TraceLane.  Work-groups are assigned round-robin to the machine's SMs
//    (per-SM L1), resident groups of a wave interleave their warps
//    round-robin (shared L2/DRAM), and each warp's 32 event streams are
//    merged position-by-position into warp instructions for the performance
//    pipeline.  The launch uses every host CPU the process may run on:
//    worker threads own disjoint sets of SMs and run those SMs' warps
//    through L1, while the launching thread replays the L2 requests in the
//    serial schedule's order, so every statistic is the one a single thread
//    computes (docs/SIMULATOR.md §1 "Scheduling").
//
// Barrier semantics: a kernel declares `num_phases`; the executor runs phase
// p for every work-item of a group before phase p+1 — precisely what
// group_barrier guarantees (DESIGN.md §5 "phase-split barriers").
#pragma once

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/machine.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/pipeline.hpp"
#include "gpusim/timing.hpp"
#include "minisycl/lane.hpp"
#include "minisycl/traits.hpp"

namespace minisycl {

/// One kernel-visible buffer, declared at launch time so the profiler can
/// normalize its addresses (see LaunchSpec::regions).
struct AddressRegion {
  const void* base = nullptr;
  std::int64_t bytes = 0;
};

/// A kernel launch: the SYCL nd_range plus local-memory request and phase
/// count (barriers = num_phases - 1).
struct LaunchSpec {
  std::int64_t global_size = 0;
  int local_size = 1;
  int shared_bytes = 0;
  int num_phases = 1;
  KernelTraits traits{};
  /// Deterministic address normalization.  Global accesses are recorded with
  /// real host pointer values; cache-set and DRAM-row modelling over raw
  /// heap addresses would make simulated *time* depend on the process's
  /// allocation history (and ASLR).  Declaring the launch's buffers here —
  /// in a fixed, launch-derived order — remaps every access into a
  /// canonical device address space laid out by declaration order, making
  /// profiled timing a pure function of the launch.  The tuning cache's
  /// bit-for-bit replay contract (docs/TUNING.md) depends on this.  Empty =
  /// identity mapping (the pre-existing behaviour).
  std::vector<AddressRegion> regions;
};

/// Kernel concept: callable as kernel(lane, phase) for both lane types.
template <typename K>
concept PhasedKernel = requires(const K& k, FastLane& f, TraceLane& t) {
  k(f, 0);
  k(t, 0);
};

namespace detail {

/// The nd-range rules both executors enforce; throws std::invalid_argument.
/// compute_occupancy adds the machine's limits for profiled launches.
inline void check_launch(const LaunchSpec& spec) {
  if (spec.local_size < 1) throw std::invalid_argument("launch: invalid work-group size");
  if (spec.global_size < 0 || spec.global_size % spec.local_size != 0) {
    throw std::invalid_argument(
        "launch: global size must be divisible by local size (SYCL nd_range rule)");
  }
  if (spec.num_phases < 1) throw std::invalid_argument("launch: a kernel has at least one phase");
  if (spec.shared_bytes < 0) {
    throw std::invalid_argument("launch: shared bytes per group must not be negative");
  }
}

}  // namespace detail

/// Correctness-only execution.
template <PhasedKernel Kernel>
void execute_functional(const LaunchSpec& spec, const Kernel& kernel) {
  detail::check_launch(spec);
  const std::int64_t groups = spec.global_size / spec.local_size;
  std::vector<std::byte> local(static_cast<std::size_t>(spec.shared_bytes));
  for (std::int64_t g = 0; g < groups; ++g) {
    for (int phase = 0; phase < spec.num_phases; ++phase) {
      for (int t = 0; t < spec.local_size; ++t) {
        ItemIds ids{g * spec.local_size + t, t, g, spec.local_size};
        FastLane lane(ids, local.data());
        kernel(lane, phase);
      }
    }
  }
}

namespace detail {

/// Host-address -> canonical-device-address mapping built from a launch's
/// declared regions.  Canonical bases are assigned by *declaration order*
/// (a pure function of the launch), 256-byte aligned with a guard gap, so
/// two buffers never share a cache line whatever the host heap did.
/// Addresses outside every declared region pass through unchanged.  The
/// last-hit cursor makes translate() unsafe to share between threads: each
/// worker builds its own map.
class AddressMap {
 public:
  static constexpr std::uint64_t kCanonicalBase = 1ull << 40;
  static constexpr std::uint64_t kRegionAlign = 256;

  explicit AddressMap(const std::vector<AddressRegion>& regions) {
    std::uint64_t next = kCanonicalBase;
    for (const AddressRegion& r : regions) {
      if (r.base == nullptr || r.bytes <= 0) continue;
      const auto bytes = static_cast<std::uint64_t>(r.bytes);
      entries_.push_back({reinterpret_cast<std::uint64_t>(r.base), bytes, next});
      next += (bytes + 2 * kRegionAlign - 1) / kRegionAlign * kRegionAlign;
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.host < b.host; });
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  [[nodiscard]] std::uint64_t translate(std::uint64_t addr) const {
    // Accesses cluster by buffer: try the last-hit region before searching.
    if (last_ < entries_.size()) {
      const Entry& e = entries_[last_];
      if (addr >= e.host && addr - e.host < e.bytes) return e.canonical + (addr - e.host);
    }
    auto it = std::upper_bound(entries_.begin(), entries_.end(), addr,
                               [](std::uint64_t a, const Entry& e) { return a < e.host; });
    if (it == entries_.begin()) return addr;
    --it;
    if (addr - it->host >= it->bytes) return addr;
    last_ = static_cast<std::size_t>(it - entries_.begin());
    return it->canonical + (addr - it->host);
  }

 private:
  struct Entry {
    std::uint64_t host = 0;
    std::uint64_t bytes = 0;
    std::uint64_t canonical = 0;
  };
  std::vector<Entry> entries_;
  mutable std::size_t last_ = 0;
};

/// Merge one event position of a warp into warp instructions and feed the
/// SM's front end; counts one `mem_paths` per memory instruction issued.
/// Returns issue slots consumed at this position.
inline int merge_position(gpusim::L1FrontEnd& front, int sm,
                          const std::array<std::vector<LaneEvent>, 32>& ev, int lanes,
                          std::size_t pos, std::uint64_t& mem_paths,
                          const AddressMap* amap = nullptr) {
  gpusim::TraceCounters& ctr = front.counters();
  const EventKind kind = ev[0][pos].kind;

  // One pass: the unmasked lanes in ascending order, each with the index of
  // its divergence path in first-seen order.
  struct ActiveLane {
    const LaneEvent* e;
    std::uint8_t lane;
    std::uint8_t path;
  };
  std::array<ActiveLane, 32> active{};
  std::array<std::uint8_t, 32> distinct{};
  int n_active = 0;
  int n_paths = 0;
  for (int l = 0; l < lanes; ++l) {
    const LaneEvent& e = ev[static_cast<std::size_t>(l)][pos];
    assert(e.kind == kind && "lane event streams diverged structurally");
    if (e.masked != 0) continue;
    int d = 0;
    while (d < n_paths && distinct[static_cast<std::size_t>(d)] != e.path) ++d;
    if (d == n_paths) distinct[static_cast<std::size_t>(n_paths++)] = e.path;
    active[static_cast<std::size_t>(n_active++)] =
        ActiveLane{&e, static_cast<std::uint8_t>(l), static_cast<std::uint8_t>(d)};
  }
  const std::span<const ActiveLane> act(active.data(), static_cast<std::size_t>(n_active));

  int slots = 0;
  switch (kind) {
    case EventKind::Flops: {
      // One FP64 instruction stream per path, as long as its longest lane.
      std::array<std::uint32_t, 32> max_n{};
      std::uint64_t sum_n = 0;
      for (const ActiveLane& a : act) {
        std::uint32_t& m = max_n[a.path];
        m = std::max(m, a.e->value);
        sum_n += a.e->value;
      }
      for (int d = 0; d < n_paths; ++d) {
        const int group_slots =
            static_cast<int>((max_n[static_cast<std::size_t>(d)] + 1) / 2);  // FP64 FMA = 2 FLOP
        slots += group_slots;
        ctr.fp64_warp_slots += static_cast<std::uint64_t>(group_slots);
      }
      ctr.flops += sum_n;
      break;
    }
    case EventKind::Branch: {
      slots = 1;
      ++ctr.branch_events;
      // Divergent when the active lanes chose more than one target.
      const bool divergent = std::any_of(act.begin(), act.end(), [&](const ActiveLane& a) {
        return a.e->value != act.front().e->value;
      });
      if (divergent) ++ctr.divergent_branches;
      break;
    }
    default: {
      // Memory instruction: one warp instruction per divergence path.
      // Global addresses go through the launch's canonical address map
      // (shared events carry byte offsets, already launch-deterministic).
      const bool global_kind = kind == EventKind::LoadGlobal ||
                               kind == EventKind::StoreGlobal ||
                               kind == EventKind::AtomicGlobal;
      std::array<gpusim::LaneAccess, 32> acc{};
      for (int d = 0; d < n_paths; ++d) {
        int n = 0;
        for (const ActiveLane& a : act) {
          if (a.path != d) continue;
          const std::uint64_t addr =
              global_kind && amap != nullptr ? amap->translate(a.e->addr) : a.e->addr;
          acc[static_cast<std::size_t>(n++)] = gpusim::LaneAccess{addr, a.e->size, a.lane};
        }
        const std::span<const gpusim::LaneAccess> span(acc.data(), static_cast<std::size_t>(n));
        switch (kind) {
          case EventKind::LoadGlobal: front.global_load(sm, span); break;
          case EventKind::StoreGlobal: front.global_store(sm, span); break;
          case EventKind::AtomicGlobal: front.global_atomic(span); break;
          case EventKind::LoadShared:
          case EventKind::StoreShared: front.shared_access(span); break;
          default: break;
        }
        slots += 1;
        ++mem_paths;
      }
      break;
    }
  }

  slots = std::max(slots, 1);
  ctr.warp_issue_slots += static_cast<std::uint64_t>(slots);
  ctr.active_lane_ops += static_cast<std::uint64_t>(n_active);
  ctr.possible_lane_ops += static_cast<std::uint64_t>(slots) * 32u;
  return slots;
}

/// Worker threads for a profiled launch: the CPUs in this process's
/// affinity mask, less one for the launching thread, which replays L2 and
/// DRAM; at least one.
inline int host_workers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::max(1, cpus - 1);
}

/// The hand-off of warp steps from the workers to the replaying thread: step
/// s's L2 requests travel in slot s % size.  A slot's word counts its
/// hand-overs — 2t while it waits for its t-th step (s / size == t), 2t + 1
/// while it holds that step — until a failed launch stores kFailed, which
/// nothing overwrites, so every waiter wakes and gives up.
class StepRing {
 public:
  /// `size` slots, each with room for `requests` L2 requests.
  StepRing(std::size_t size, std::size_t requests) : slots_(size) {
    for (Slot& slot : slots_) slot.requests.reserve(requests);
  }

  /// Worker: hand step s's requests over, taking back an emptied list.
  /// False once the launch failed.
  bool publish(std::int64_t s, std::vector<gpusim::L2Request>& requests) {
    Slot& slot = slot_of(s);
    const std::uint32_t empty = 2 * turn_of(s);
    if (!await(slot, empty)) return false;
    slot.requests.swap(requests);
    return advance(slot, empty, empty + 1);
  }

  /// Replayer: step s's requests, or nullptr once the launch failed.  Empty
  /// the list, then release(s).
  std::vector<gpusim::L2Request>* take(std::int64_t s) {
    Slot& slot = slot_of(s);
    return await(slot, 2 * turn_of(s) + 1) ? &slot.requests : nullptr;
  }

  /// Replayer: the slot of step s now waits for step s + size.
  void release(std::int64_t s) {
    const std::uint32_t full = 2 * turn_of(s) + 1;
    advance(slot_of(s), full, full + 1);
  }

  /// Keep the launch's first failure and wake every waiter.
  void fail(std::exception_ptr e) {
    {
      const std::lock_guard lock(mu_);
      if (!error_) error_ = std::move(e);
    }
    for (Slot& slot : slots_) {
      slot.word.store(kFailed, std::memory_order_release);
      slot.word.notify_all();
    }
  }

  /// The first failure; read it once every thread has been joined.
  [[nodiscard]] std::exception_ptr error() const { return error_; }

 private:
  static constexpr std::uint32_t kFailed = ~std::uint32_t{0};

  struct alignas(64) Slot {
    std::atomic<std::uint32_t> word{0};
    std::vector<gpusim::L2Request> requests;
  };

  Slot& slot_of(std::int64_t s) { return slots_[static_cast<std::size_t>(s) % slots_.size()]; }
  std::uint32_t turn_of(std::int64_t s) const {
    return static_cast<std::uint32_t>(static_cast<std::size_t>(s) / slots_.size());
  }

  static bool await(Slot& slot, std::uint32_t want) {
    for (;;) {
      const std::uint32_t v = slot.word.load(std::memory_order_acquire);
      if (v == want) return true;
      if (v == kFailed) return false;
      slot.word.wait(v, std::memory_order_acquire);
    }
  }

  static bool advance(Slot& slot, std::uint32_t from, std::uint32_t to) {
    if (!slot.word.compare_exchange_strong(from, to, std::memory_order_acq_rel)) return false;
    slot.word.notify_all();
    return true;
  }

  std::vector<Slot> slots_;
  std::mutex mu_;
  std::exception_ptr error_;
};

/// Room for one warp step's L2 requests in each list the workers and the
/// replayer pass around, reserved on the launching thread: a list a worker
/// thread has to grow is memory that stays with that thread's allocator
/// arena, and those arenas gave milcbench's fig6-sweep peak RSS outliers of
/// +17 MB in about one run in four.
inline constexpr std::size_t kStepRequests = 4096;

/// One profiled-launch worker: the SMs with sm % n_workers == index, its
/// counters, their front end, its own AddressMap cursor, 32 lane event
/// streams and the local memory of its groups in a wave.  The launching
/// thread builds it, for the reason given at kStepRequests.
struct Worker {
  Worker(const gpusim::MachineModel& m, const LaunchSpec& spec, int w, int n,
         std::int64_t first_wave)
      : index(w),
        n_workers(n),
        num_sms(m.num_sms),
        shared_bytes(static_cast<std::size_t>(spec.shared_bytes)),
        front(m, ctr, w, n),
        amap(spec.regions) {
    for (auto& v : ev) v.reserve(512);
    front.l2_requests().reserve(kStepRequests);
    start_wave(first_wave);  // the largest wave sizes owned and local_mem
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// This worker's groups gi of a wave of wave_n, each with zeroed local
  /// memory.
  void start_wave(std::int64_t wave_n) {
    owned.clear();
    for (std::int64_t gi = 0; gi < wave_n; ++gi) {
      if (gi % num_sms % n_workers == index) owned.push_back(gi);
    }
    local_mem.resize(std::max(local_mem.size(), owned.size()));
    for (std::size_t k = 0; k < owned.size(); ++k) local_mem[k].assign(shared_bytes, std::byte{0});
  }

  [[nodiscard]] const AddressMap* amap_ptr() const { return amap.empty() ? nullptr : &amap; }

  int index;
  int n_workers;
  int num_sms;
  std::size_t shared_bytes;
  gpusim::TraceCounters ctr;
  gpusim::L1FrontEnd front;  // adds to ctr
  AddressMap amap;
  std::array<std::vector<LaneEvent>, 32> ev;
  std::vector<std::int64_t> owned;
  std::vector<std::vector<std::byte>> local_mem;
  std::uint64_t mem_paths = 0;
};

/// Warp steps in flight between the workers and the replayer.  Each holds
/// one warp's L2 requests, so peak memory is bounded by the ring, not the
/// lattice.  On a 4-CPU host milcbench's fig6-sweep ran as fast with 64 as
/// with 128 steps, at 2 MB less peak RSS.
inline constexpr std::size_t kRingSteps = 64;

/// execute_profiled on `worker_count` worker threads (clamped to the SMs
/// the launch occupies; an empty launch starts none).  Every statistic and
/// every output is independent of `worker_count`.
template <PhasedKernel Kernel>
gpusim::KernelStats execute_profiled(int worker_count, const gpusim::MachineModel& m,
                                     const LaunchSpec& spec, const Kernel& kernel,
                                     std::string stats_name) {
  check_launch(spec);
  gpusim::LaunchConfig cfg;
  cfg.global_size = spec.global_size;
  cfg.local_size = spec.local_size;
  cfg.shared_bytes_per_group = spec.shared_bytes;
  cfg.regs_per_thread = spec.traits.regs_per_thread;
  cfg.num_phases = spec.num_phases;

  const gpusim::OccupancyInfo occ = gpusim::compute_occupancy(m, cfg);

  // The serial schedule: waves of groups_per_sm x num_sms groups, group gi
  // of a wave on SM gi % num_sms; within a wave, round r runs warp
  // r % warps_per_group of phase r / warps_per_group of every group in gi
  // order.  Step (wave, r, gi) is the warp steps of earlier waves plus
  // r * wave_n + gi.
  const int warp = m.warp_size;
  const int warps_per_group = (spec.local_size + warp - 1) / warp;
  const int rounds = spec.num_phases * warps_per_group;
  const std::int64_t groups = spec.global_size / spec.local_size;
  const std::int64_t wave_cap = static_cast<std::int64_t>(occ.groups_per_sm) * m.num_sms;
  const std::int64_t sms_used = std::min({groups, wave_cap, std::int64_t{m.num_sms}});
  const int n_workers =
      static_cast<int>(std::min<std::int64_t>(std::max(worker_count, 1), sms_used));

  // Worker w runs, in schedule order, every step of the groups on its SMs
  // (sm % n_workers == w): the kernel's lanes, the warp merge and L1.
  std::deque<Worker> workers;
  const std::int64_t first_wave = std::min(groups, wave_cap);
  for (int w = 0; w < n_workers; ++w) workers.emplace_back(m, spec, w, n_workers, first_wave);
  StepRing ring(kRingSteps, kStepRequests);
  // L2 and DRAM, built after the workers so that they are freed first: the
  // next launch then finds the L2's block (5 MB on the A100) whole, where
  // freed in the other order it let fig6-sweep's heap grow by as much again
  // over a few passes.
  gpusim::PerfPipeline pipe(m);

  auto run_worker = [&](Worker& wk) {
    std::int64_t wave_first_step = 0;
    for (std::int64_t wave_start = 0; wave_start < groups; wave_start += wave_cap) {
      const std::int64_t wave_n = std::min<std::int64_t>(wave_cap, groups - wave_start);
      wk.start_wave(wave_n);

      for (int r = 0; r < rounds; ++r) {
        const int phase = r / warps_per_group;
        const int wi = r % warps_per_group;
        const int lanes = std::min(warp, spec.local_size - wi * warp);
        for (std::size_t k = 0; k < wk.owned.size(); ++k) {
          const std::int64_t gi = wk.owned[k];
          const std::int64_t g = wave_start + gi;
          const int sm = static_cast<int>(gi % m.num_sms);

          // Execute one warp of this group's current phase.
          for (int l = 0; l < lanes; ++l) {
            std::vector<LaneEvent>& events = wk.ev[static_cast<std::size_t>(l)];
            events.clear();
            const int lid = wi * warp + l;
            ItemIds ids{g * spec.local_size + lid, lid, g, spec.local_size};
            TraceLane lane(ids, wk.local_mem[k].data(), &events);
            kernel(lane, phase);
          }
          const std::size_t n_events = wk.ev[0].size();
          for (int l = 1; l < lanes; ++l) {
            assert(wk.ev[static_cast<std::size_t>(l)].size() == n_events &&
                   "kernel lanes must record positionally aligned event streams");
          }
          for (std::size_t pos = 0; pos < n_events; ++pos) {
            merge_position(wk.front, sm, wk.ev, lanes, pos, wk.mem_paths, wk.amap_ptr());
          }
          if (phase == 0) ++wk.ctr.warps;
          // Charge barrier events at phase boundaries.
          if (wi == warps_per_group - 1 && phase + 1 < spec.num_phases) {
            wk.ctr.barrier_warp_events += static_cast<std::uint64_t>(warps_per_group);
          }
          if (!ring.publish(wave_first_step + r * wave_n + gi, wk.front.l2_requests())) return;
        }
      }
      wave_first_step += rounds * wave_n;
    }
  };

  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(n_workers));
    try {
      for (int w = 0; w < n_workers; ++w) {
        threads.emplace_back([&ring, &run_worker, &wk = workers[static_cast<std::size_t>(w)]] {
          try {
            run_worker(wk);
          } catch (...) {
            ring.fail(std::current_exception());
          }
        });
      }
      // L2 and DRAM see the steps in schedule order, each in its own order.
      const std::int64_t steps = groups * rounds;
      for (std::int64_t s = 0; s < steps; ++s) {
        std::vector<gpusim::L2Request>* requests = ring.take(s);
        if (requests == nullptr) break;
        pipe.replay_l2(*requests);
        requests->clear();
        ring.release(s);
      }
    } catch (...) {
      ring.fail(std::current_exception());
    }
  }  // joins the workers
  if (const std::exception_ptr e = ring.error()) std::rethrow_exception(e);

  gpusim::TraceCounters& ctr = pipe.counters();
  ctr.work_items = static_cast<std::uint64_t>(spec.global_size);
  std::uint64_t mem_paths = 0;
  for (const Worker& wk : workers) {
    ctr.add(wk.ctr);
    mem_paths += wk.mem_paths;
  }
  pipe.finalize();
  ctr.warp_issue_slots += gpusim::control_issue_slots(mem_paths);
  return gpusim::make_stats(m, std::move(stats_name), cfg, occ, ctr, pipe.dram().cost_units(),
                            spec.traits.codegen_slowdown);
}

}  // namespace detail

/// Profiled execution: returns the full Nsight-style statistics record.
template <PhasedKernel Kernel>
gpusim::KernelStats execute_profiled(const gpusim::MachineModel& m, const LaunchSpec& spec,
                                     const Kernel& kernel, std::string stats_name) {
  return detail::execute_profiled(detail::host_workers(), m, spec, kernel,
                                  std::move(stats_name));
}

}  // namespace minisycl
