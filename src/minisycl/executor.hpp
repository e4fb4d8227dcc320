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
//    pipeline.
//
// Barrier semantics: a kernel declares `num_phases`; the executor runs phase
// p for every work-item of a group before phase p+1 — precisely what
// group_barrier guarantees (DESIGN.md §5 "phase-split barriers").
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
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

/// Correctness-only execution.
template <PhasedKernel Kernel>
void execute_functional(const LaunchSpec& spec, const Kernel& kernel) {
  assert(spec.global_size % spec.local_size == 0);
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
/// Addresses outside every declared region pass through unchanged.
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
/// pipeline.  Returns issue slots consumed at this position.
inline int merge_position(gpusim::PerfPipeline& pipe, const gpusim::Calibration& cal, int sm,
                          const std::array<std::vector<LaneEvent>, 32>& ev, int lanes,
                          std::size_t pos, double& control_slots,
                          const AddressMap* amap = nullptr) {
  gpusim::TraceCounters& ctr = pipe.counters();
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
          case EventKind::LoadGlobal: pipe.global_load(sm, span); break;
          case EventKind::StoreGlobal: pipe.global_store(sm, span); break;
          case EventKind::AtomicGlobal: pipe.global_atomic(sm, span); break;
          case EventKind::LoadShared: pipe.shared_access(span, false); break;
          case EventKind::StoreShared: pipe.shared_access(span, true); break;
          default: break;
        }
        slots += 1;
        control_slots += cal.control_slots_per_mem_op;
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

}  // namespace detail

/// Profiled execution: returns the full Nsight-style statistics record.
template <PhasedKernel Kernel>
gpusim::KernelStats execute_profiled(const gpusim::MachineModel& m,
                                     const gpusim::Calibration& cal, const LaunchSpec& spec,
                                     const Kernel& kernel, std::string stats_name) {
  gpusim::LaunchConfig cfg;
  cfg.global_size = spec.global_size;
  cfg.local_size = spec.local_size;
  cfg.shared_bytes_per_group = spec.shared_bytes;
  cfg.regs_per_thread = spec.traits.regs_per_thread;
  cfg.num_phases = spec.num_phases;

  const gpusim::OccupancyInfo occ = gpusim::compute_occupancy(m, cal, cfg);
  gpusim::PerfPipeline pipe(m, cal);
  gpusim::TraceCounters& ctr = pipe.counters();
  ctr.work_items = static_cast<std::uint64_t>(spec.global_size);

  const int warp = m.warp_size;
  const int warps_per_group = (spec.local_size + warp - 1) / warp;
  const std::int64_t groups = spec.global_size / spec.local_size;
  const std::int64_t wave_cap = static_cast<std::int64_t>(occ.groups_per_sm) * m.num_sms;

  std::array<std::vector<LaneEvent>, 32> ev;
  for (auto& v : ev) v.reserve(512);
  double control_slots = 0.0;
  const detail::AddressMap amap(spec.regions);
  const detail::AddressMap* amap_ptr = amap.empty() ? nullptr : &amap;

  struct GroupState {
    int phase = 0;
    int next_warp = 0;
  };
  std::vector<GroupState> states;
  std::vector<std::vector<std::byte>> local_mem;

  for (std::int64_t wave_start = 0; wave_start < groups; wave_start += wave_cap) {
    const std::int64_t wave_n = std::min<std::int64_t>(wave_cap, groups - wave_start);
    states.assign(static_cast<std::size_t>(wave_n), GroupState{});
    local_mem.assign(static_cast<std::size_t>(wave_n),
                     std::vector<std::byte>(static_cast<std::size_t>(spec.shared_bytes)));

    std::int64_t done = 0;
    while (done < wave_n) {
      for (std::int64_t gi = 0; gi < wave_n; ++gi) {
        GroupState& st = states[static_cast<std::size_t>(gi)];
        if (st.phase >= spec.num_phases) continue;
        const std::int64_t g = wave_start + gi;
        const int sm = static_cast<int>(gi % m.num_sms);

        // Execute one warp of this group's current phase.
        const int w = st.next_warp;
        const int lanes = std::min(warp, spec.local_size - w * warp);
        for (int l = 0; l < lanes; ++l) {
          ev[static_cast<std::size_t>(l)].clear();
          const int lid = w * warp + l;
          ItemIds ids{g * spec.local_size + lid, lid, g, spec.local_size};
          TraceLane lane(ids, local_mem[static_cast<std::size_t>(gi)].data(),
                         &ev[static_cast<std::size_t>(l)]);
          kernel(lane, st.phase);
        }
        const std::size_t n_events = ev[0].size();
        for (int l = 1; l < lanes; ++l) {
          assert(ev[static_cast<std::size_t>(l)].size() == n_events &&
                 "kernel lanes must record positionally aligned event streams");
        }
        for (std::size_t pos = 0; pos < n_events; ++pos) {
          detail::merge_position(pipe, cal, sm, ev, lanes, pos, control_slots, amap_ptr);
        }
        if (st.phase == 0) ++ctr.warps;

        // Advance the cursor; charge barrier events at phase boundaries.
        if (++st.next_warp == warps_per_group) {
          st.next_warp = 0;
          ++st.phase;
          if (st.phase < spec.num_phases) {
            ctr.barrier_warp_events += static_cast<std::uint64_t>(warps_per_group);
          }
          if (st.phase >= spec.num_phases) ++done;
        }
      }
    }
  }

  pipe.finalize();
  ctr.warp_issue_slots += static_cast<std::uint64_t>(control_slots);
  return gpusim::make_stats(m, cal, std::move(stats_name), cfg, occ, ctr,
                            pipe.dram().cost_units(), spec.traits.codegen_slowdown);
}

}  // namespace minisycl
