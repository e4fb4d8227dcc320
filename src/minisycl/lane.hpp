// lane.hpp — the per-work-item execution context handed to kernels.
//
// Kernels are templates over the Lane type ("one kernel source, two lanes",
// DESIGN.md §5):
//   * FastLane  — pure computation; used by correctness tests and examples.
//   * TraceLane — performs the same computation *and* records every memory
//     access, FLOP bundle and branch decision so the executor can merge the
//     32 lanes of a warp position-by-position into warp instructions for the
//     performance pipeline.
//
// Predication: divergent regions bracket themselves with branch()/converge()
// and use set_masked() for lanes that sit out a region.  Masked lanes still
// record (masked) events — keeping all 32 event streams positionally aligned
// — but suppress side effects and generate no memory transactions, exactly
// like predicated-off SIMT lanes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace minisycl {

enum class EventKind : std::uint8_t {
  LoadGlobal,
  StoreGlobal,
  AtomicGlobal,
  LoadShared,
  StoreShared,
  Flops,
  Branch,
};

struct LaneEvent {
  EventKind kind = EventKind::Flops;
  std::uint8_t size = 0;     ///< access width in bytes
  std::uint8_t masked = 0;   ///< predicated off
  std::uint8_t path = 0;     ///< divergence path at this event
  std::uint32_t value = 0;   ///< Flops: count; Branch: chosen path
  std::uint64_t addr = 0;    ///< byte address (global) / byte offset (shared)
};

/// Identity of a work-item within the 1-D nd_range.
struct ItemIds {
  std::int64_t global_id = 0;
  std::int32_t local_id = 0;
  std::int64_t group_id = 0;
  std::int32_t local_range = 0;
};

/// Fast path: executes, records nothing.
class FastLane {
 public:
  FastLane(const ItemIds& ids, std::byte* local_mem) : ids_(ids), local_(local_mem) {}

  [[nodiscard]] std::int64_t global_id() const { return ids_.global_id; }
  [[nodiscard]] int local_id() const { return ids_.local_id; }
  [[nodiscard]] std::int64_t group_id() const { return ids_.group_id; }
  [[nodiscard]] int local_range() const { return ids_.local_range; }

  template <typename T>
  [[nodiscard]] T load(const T* p) {
    return *p;
  }
  template <typename T>
  void store(T* p, const T& v) {
    if (!masked_) *p = v;
  }
  /// Relaxed-order atomic add (the only atomic the kernels use).  Execution
  /// within a work-group is serialised by the executor, so a plain add has
  /// identical semantics to sycl::atomic_ref<..., memory_order::relaxed>.
  void atomic_add(double* p, double v) {
    if (!masked_) *p += v;
  }

  template <typename T>
  [[nodiscard]] T shared_load(int idx) {
    T v;
    std::memcpy(&v, local_ + static_cast<std::size_t>(idx) * sizeof(T), sizeof(T));
    return v;
  }
  template <typename T>
  void shared_store(int idx, const T& v) {
    if (!masked_) {
      std::memcpy(local_ + static_cast<std::size_t>(idx) * sizeof(T), &v, sizeof(T));
    }
  }

  void flops(int) {}
  void branch(int) {}
  /// Record one arm test of an if/else-if cascade (counted as a branch
  /// instruction for divergence statistics) without changing the path.
  void branch_test(bool) {}
  /// Set the divergence path without recording a branch instruction (the
  /// path split is the *consequence* of the cascade's tests, not an extra
  /// instruction).
  void set_path(int) {}
  void converge() {}
  void set_masked(bool m) { masked_ = m; }
  [[nodiscard]] bool masked() const { return masked_; }

 private:
  ItemIds ids_;
  std::byte* local_;
  bool masked_ = false;
};

/// Tracing path: executes *and* records.
class TraceLane {
 public:
  TraceLane(const ItemIds& ids, std::byte* local_mem, std::vector<LaneEvent>* events)
      : ids_(ids), local_(local_mem), events_(events) {}

  [[nodiscard]] std::int64_t global_id() const { return ids_.global_id; }
  [[nodiscard]] int local_id() const { return ids_.local_id; }
  [[nodiscard]] std::int64_t group_id() const { return ids_.group_id; }
  [[nodiscard]] int local_range() const { return ids_.local_range; }

  template <typename T>
  [[nodiscard]] T load(const T* p) {
    record(EventKind::LoadGlobal, sizeof(T), reinterpret_cast<std::uint64_t>(p), 0);
    return *p;
  }
  template <typename T>
  void store(T* p, const T& v) {
    record(EventKind::StoreGlobal, sizeof(T), reinterpret_cast<std::uint64_t>(p), 0);
    if (!masked_) *p = v;
  }
  /// Relaxed-order atomic add.  The profiled executor runs work-groups on
  /// several host threads at once, so updates from different groups need a
  /// real atomic.
  void atomic_add(double* p, double v) {
    record(EventKind::AtomicGlobal, sizeof(double), reinterpret_cast<std::uint64_t>(p), 0);
    if (!masked_) std::atomic_ref<double>(*p).fetch_add(v, std::memory_order_relaxed);
  }

  template <typename T>
  [[nodiscard]] T shared_load(int idx) {
    const std::size_t off = static_cast<std::size_t>(idx) * sizeof(T);
    record(EventKind::LoadShared, sizeof(T), off, 0);
    T v;
    std::memcpy(&v, local_ + off, sizeof(T));
    return v;
  }
  template <typename T>
  void shared_store(int idx, const T& v) {
    const std::size_t off = static_cast<std::size_t>(idx) * sizeof(T);
    record(EventKind::StoreShared, sizeof(T), off, 0);
    if (!masked_) std::memcpy(local_ + off, &v, sizeof(T));
  }

  void flops(int n) { record(EventKind::Flops, 0, 0, static_cast<std::uint32_t>(n)); }

  /// Record a (potentially divergent) branch decision and enter that path.
  void branch(int chosen_path) {
    record(EventKind::Branch, 0, 0, static_cast<std::uint32_t>(chosen_path));
    path_ = static_cast<std::uint8_t>(chosen_path);
  }
  /// Record one arm test of an if/else-if cascade without changing the path
  /// (see FastLane::branch_test).
  void branch_test(bool taken) {
    record(EventKind::Branch, 0, 0, taken ? 1u : 0u);
  }
  /// Set the divergence path without recording a branch instruction.
  void set_path(int path) { path_ = static_cast<std::uint8_t>(path); }
  /// Leave the divergent region (reconvergence point).
  void converge() { path_ = 0; }

  void set_masked(bool m) { masked_ = m; }
  [[nodiscard]] bool masked() const { return masked_; }

 private:
  void record(EventKind k, std::uint8_t size, std::uint64_t addr, std::uint32_t value) {
    events_->push_back(LaneEvent{k, size, static_cast<std::uint8_t>(masked_ ? 1 : 0), path_,
                                 value, addr});
  }

  ItemIds ids_;
  std::byte* local_;
  std::vector<LaneEvent>* events_;
  std::uint8_t path_ = 0;
  bool masked_ = false;
};

}  // namespace minisycl
