// sanitizer.hpp — ksan, a compute-sanitizer-style checking executor.
//
// The phase model of minisycl (DESIGN.md §5) makes the happens-before
// relation of a kernel launch explicit: a group barrier is a phase boundary,
// so two accesses from different work-items of the *same* group are ordered
// iff they fall in different phases, and accesses from different groups are
// never ordered.  ksan replays a launch through SanitizeLane — the checking
// sibling of FastLane/TraceLane, same Lane-policy interface, so every
// shipped kernel template instantiates over it unchanged — and validates,
// per access, against
//   * a shadow-memory map (8-byte cells) for data races (racecheck),
//   * the live/freed USM Registry regions plus the launch's declared buffers
//     (LaunchSpec::regions, then SanitizeConfig::regions) for out-of-bounds
//     and use-after-free (memcheck),
//   * a per-group byte bitmap for read-before-write of local-accessor bytes
//     (initcheck),
//   * warp-merged access positions for perf lints (coalescing, shared-memory
//     bank conflicts, branch divergence) using the exact gpusim coalescer /
//     bank model, so the lints agree with what the simulator charges.
//
// Invalid accesses are *suppressed* (loads return zero, stores are dropped),
// so sanitizing a deliberately broken kernel never touches memory it should
// not — the same contract as running under a real compute-sanitizer with a
// trap handler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gpusim/coalescer.hpp"
#include "ksan/report.hpp"
#include "minisycl/executor.hpp"

namespace ksan {

/// Declare the extent of a typed array as a valid region — the same
/// buffer-extent type a LaunchSpec lists for the profiler.
template <typename T>
[[nodiscard]] minisycl::AddressRegion region_of(const T* p, std::size_t count) {
  return {p, static_cast<std::int64_t>(count * sizeof(T))};
}

/// The one setting of a sanitized launch.  Everything else is fixed in
/// sanitizer.cpp: the valid/freed region sets are seeded from the USM
/// Registry, the perf lints always run on the simulator's memory geometry,
/// and at most 16 offences are recorded verbatim (counts are always exact).
struct SanitizeConfig {
  /// Valid regions beyond the launch's own buffers (LaunchSpec::regions,
  /// always valid): a tighter list for a region-free spec, or extra memory
  /// a test kernel touches.
  std::vector<minisycl::AddressRegion> regions;
};

/// Per-launch checking state.  Non-template: all kernel-type knowledge stays
/// in SanitizeLane / sanitize_launch.
class LaunchContext {
 public:
  LaunchContext(const minisycl::LaunchSpec& spec, std::string name, const SanitizeConfig& cfg);

  void begin_group(std::int64_t group);
  void end_group();

  /// Validate one global access.  Returns true iff the caller should perform
  /// the real access (unmasked and inside a live region).
  bool global_access(const minisycl::ItemIds& ids, int phase, AccessKind kind, const void* p,
                     std::uint32_t size, bool masked, int op_pos);

  /// Validate one local-memory access (byte offset).  Returns true iff the
  /// caller should perform it (unmasked and within the local_mem request).
  bool shared_access(const minisycl::ItemIds& ids, int phase, AccessKind kind,
                     std::int64_t offset, std::uint32_t size, bool masked, int op_pos);

  /// Record a branch decision / arm test for the divergence lint.
  void branch_event(const minisycl::ItemIds& ids, int phase, std::uint32_t target, bool masked,
                    int op_pos);

  [[nodiscard]] SanitizerReport finish();

 private:
  /// Shadow state of one 8-byte memory cell: the most recent non-atomic
  /// write, the most recent atomic, and the readers of the newest epoch.
  /// Each entry carries a byte mask of the bytes it actually touched, so
  /// sub-word accesses (the fp32/fp16 wire codecs store 8- and 4-byte
  /// elements) only conflict when their byte ranges genuinely overlap —
  /// adjacent elements sharing a cell are not a race.
  struct CellState {
    std::int64_t w_item = -1;
    std::int64_t w_group = -1;
    int w_phase = -1;
    std::uint8_t w_mask = 0;
    std::int64_t a_item = -1;
    std::int64_t a_group = -1;
    int a_phase = -1;
    std::uint8_t a_mask = 0;
    int r_phase = -1;
    int r_count = 0;
    bool r_many = false;
    std::uint8_t r_many_mask = 0;
    std::int64_t r_item[2] = {-1, -1};
    std::int64_t r_group[2] = {-1, -1};
    std::uint8_t r_mask[2] = {0, 0};
  };

  /// One warp instruction being reassembled from lane events (per group).
  struct WarpOp {
    std::uint8_t space = 0;  ///< 1 global, 2 shared, 3 branch
    AccessKind kind = AccessKind::Load;
    bool any_store = false;
    std::int64_t item = -1;  ///< exemplar active lane (reporting)
    int phase = 0;
    std::uint32_t target0 = 0;
    bool divergent = false;
    bool has_target = false;
    std::vector<gpusim::LaneAccess> accesses;
  };

  enum class RegionStatus { Valid, Freed, Unknown };
  [[nodiscard]] RegionStatus classify(std::uint64_t addr, std::uint32_t size) const;

  void record(Offence o);
  void count(Category c) { ++report_.counts[static_cast<std::size_t>(c)]; }
  void check_cell(std::unordered_map<std::uint64_t, CellState>& cells, std::uint64_t cell,
                  const minisycl::ItemIds& ids, int phase, AccessKind kind, bool shared,
                  std::uint64_t addr, std::uint32_t size);
  void note_warp_op(std::uint8_t space, const minisycl::ItemIds& ids, int phase,
                    AccessKind kind, std::uint64_t addr, std::uint32_t size, bool masked,
                    int op_pos);
  void flush_warp_ops();

  SanitizerReport report_;
  std::map<std::uint64_t, std::uint64_t> live_;   ///< base -> bytes
  std::map<std::uint64_t, std::uint64_t> freed_;  ///< base -> bytes
  std::unordered_map<std::uint64_t, CellState> global_cells_;
  std::unordered_map<std::uint64_t, CellState> shared_cells_;  ///< reset per group
  std::vector<std::uint8_t> shared_init_;                      ///< reset per group
  std::unordered_map<std::uint64_t, WarpOp> warp_ops_;         ///< reset per group
  std::int64_t group_ = -1;
};

/// The checking Lane policy.  Interface-identical to FastLane/TraceLane so
/// the one-kernel-source contract holds: `kernel(lane, phase)` instantiates
/// over SanitizeLane with no per-kernel forks.
class SanitizeLane {
 public:
  SanitizeLane(const minisycl::ItemIds& ids, std::byte* local_mem, LaunchContext* ctx,
               int phase)
      : ids_(ids), local_(local_mem), ctx_(ctx), phase_(phase) {}

  [[nodiscard]] std::int64_t global_id() const { return ids_.global_id; }
  [[nodiscard]] int local_id() const { return ids_.local_id; }
  [[nodiscard]] std::int64_t group_id() const { return ids_.group_id; }
  [[nodiscard]] int local_range() const { return ids_.local_range; }

  template <typename T>
  [[nodiscard]] T load(const T* p) {
    if (!ctx_->global_access(ids_, phase_, AccessKind::Load, p, sizeof(T), masked_, pos_++)) {
      return T{};
    }
    return *p;
  }
  template <typename T>
  void store(T* p, const T& v) {
    if (ctx_->global_access(ids_, phase_, AccessKind::Store, p, sizeof(T), masked_, pos_++)) {
      *p = v;
    }
  }
  void atomic_add(double* p, double v) {
    if (ctx_->global_access(ids_, phase_, AccessKind::Atomic, p, sizeof(double), masked_,
                            pos_++)) {
      *p += v;
    }
  }

  template <typename T>
  [[nodiscard]] T shared_load(int idx) {
    const std::int64_t off = static_cast<std::int64_t>(idx) * static_cast<std::int64_t>(sizeof(T));
    if (!ctx_->shared_access(ids_, phase_, AccessKind::Load, off, sizeof(T), masked_, pos_++)) {
      return T{};
    }
    T v;
    std::memcpy(&v, local_ + off, sizeof(T));
    return v;
  }
  template <typename T>
  void shared_store(int idx, const T& v) {
    const std::int64_t off = static_cast<std::int64_t>(idx) * static_cast<std::int64_t>(sizeof(T));
    if (ctx_->shared_access(ids_, phase_, AccessKind::Store, off, sizeof(T), masked_, pos_++)) {
      std::memcpy(local_ + off, &v, sizeof(T));
    }
  }

  void flops(int) {}
  void branch(int chosen_path) {
    ctx_->branch_event(ids_, phase_, static_cast<std::uint32_t>(chosen_path), masked_, pos_++);
    path_ = static_cast<std::uint8_t>(chosen_path);
  }
  void branch_test(bool taken) {
    ctx_->branch_event(ids_, phase_, taken ? 1u : 0u, masked_, pos_++);
  }
  void set_path(int path) { path_ = static_cast<std::uint8_t>(path); }
  void converge() { path_ = 0; }
  void set_masked(bool m) { masked_ = m; }
  [[nodiscard]] bool masked() const { return masked_; }

 private:
  minisycl::ItemIds ids_;
  std::byte* local_;
  LaunchContext* ctx_;
  int phase_;
  int pos_ = 0;  ///< per-(item, phase) op position — warp-aligned by the
                 ///< executor's event-stream alignment invariant
  std::uint8_t path_ = 0;
  bool masked_ = false;
};

/// Sanitized launch mode: replay `kernel` over the nd_range exactly like
/// execute_functional (same side effects for valid accesses) while checking
/// every access.  Usable with any PhasedKernel — the same kernel objects the
/// queue submits.  A malformed nd-range throws std::invalid_argument, as in
/// both executors.
template <minisycl::PhasedKernel Kernel>
[[nodiscard]] SanitizerReport sanitize_launch(const minisycl::LaunchSpec& spec,
                                              const Kernel& kernel,
                                              const SanitizeConfig& cfg = {},
                                              std::string name = {}) {
  minisycl::detail::check_launch(spec);
  if (name.empty()) name = spec.traits.name;
  LaunchContext ctx(spec, std::move(name), cfg);
  const std::int64_t groups = spec.global_size / spec.local_size;
  std::vector<std::byte> local(static_cast<std::size_t>(spec.shared_bytes));
  for (std::int64_t g = 0; g < groups; ++g) {
    ctx.begin_group(g);
    for (int phase = 0; phase < spec.num_phases; ++phase) {
      for (int t = 0; t < spec.local_size; ++t) {
        minisycl::ItemIds ids{g * spec.local_size + t, t, g, spec.local_size};
        SanitizeLane lane(ids, local.data(), &ctx, phase);
        kernel(lane, phase);
      }
    }
    ctx.end_group();
  }
  return ctx.finish();
}

}  // namespace ksan
