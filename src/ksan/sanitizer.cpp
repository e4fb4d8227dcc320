#include "ksan/sanitizer.hpp"

#include <algorithm>
#include <cstdio>
#include <span>

#include "gpusim/machine.hpp"
#include "minisycl/usm.hpp"

namespace ksan {

namespace {

/// Offences recorded verbatim per launch (counts are always exact).
constexpr int kMaxRecords = 16;

/// The uncoalesced lint fires when a warp op needs more than this many times
/// the ideal sector count (2.0 tolerates the gauge layout's constant 2-word
/// gap, which the paper considers coalesced, §IV-D7).
constexpr double kCoalesceSlack = 2.0;

/// The memory geometry the lints model: the simulator's, so a lint flags
/// exactly what gpusim charges for.
constexpr gpusim::MachineModel kMachine = gpusim::a100();

/// Pack (phase, warp, op position) into one warp-instruction key.  Positions
/// are per-lane op counters; the executor's event-stream alignment invariant
/// guarantees lanes of a warp agree on what sits at each position.
[[nodiscard]] std::uint64_t warp_op_key(int phase, int warp, int op_pos) {
  return (static_cast<std::uint64_t>(phase) << 48) | (static_cast<std::uint64_t>(warp) << 32) |
         static_cast<std::uint32_t>(op_pos);
}

[[nodiscard]] std::string format_region_note(const char* what, std::uint64_t base,
                                             std::uint64_t bytes) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s (base=0x%llx, size=%llu B)", what,
                static_cast<unsigned long long>(base), static_cast<unsigned long long>(bytes));
  return buf;
}

}  // namespace

LaunchContext::LaunchContext(const minisycl::LaunchSpec& spec, std::string name,
                             const SanitizeConfig& cfg) {
  report_.kernel = std::move(name);
  report_.global_size = spec.global_size;
  report_.local_size = spec.local_size;
  report_.shared_bytes = spec.shared_bytes;
  report_.num_phases = spec.num_phases;
  auto& reg = minisycl::usm::Registry::instance();
  for (const auto& r : reg.live_snapshot()) live_[r.base] = std::max(live_[r.base], r.bytes);
  for (const auto& r : reg.freed_snapshot()) freed_[r.base] = r.bytes;
  auto declare = [this](const minisycl::AddressRegion& r) {
    const auto base = reinterpret_cast<std::uint64_t>(r.base);
    live_[base] = std::max(live_[base], static_cast<std::uint64_t>(r.bytes));
  };
  for (const minisycl::AddressRegion& r : spec.regions) declare(r);
  for (const minisycl::AddressRegion& r : cfg.regions) declare(r);
  shared_init_.assign(static_cast<std::size_t>(spec.shared_bytes), 0);
}

void LaunchContext::begin_group(std::int64_t group) {
  group_ = group;
  shared_cells_.clear();
  warp_ops_.clear();
  std::fill(shared_init_.begin(), shared_init_.end(), std::uint8_t{0});
}

void LaunchContext::end_group() {
  flush_warp_ops();
  group_ = -1;
}

void LaunchContext::record(Offence o) {
  if (static_cast<int>(report_.records.size()) < kMaxRecords) {
    report_.records.push_back(std::move(o));
  }
}

LaunchContext::RegionStatus LaunchContext::classify(std::uint64_t addr,
                                                    std::uint32_t size) const {
  auto contains = [&](const std::map<std::uint64_t, std::uint64_t>& m) {
    auto it = m.upper_bound(addr);
    if (it == m.begin()) return false;
    --it;
    return addr >= it->first && addr + size <= it->first + it->second;
  };
  if (contains(live_)) return RegionStatus::Valid;
  if (contains(freed_)) return RegionStatus::Freed;
  return RegionStatus::Unknown;
}

void LaunchContext::check_cell(std::unordered_map<std::uint64_t, CellState>& cells,
                               std::uint64_t cell, const minisycl::ItemIds& ids, int phase,
                               AccessKind kind, bool shared, std::uint64_t addr,
                               std::uint32_t size) {
  CellState& c = cells[cell];
  const std::int64_t item = ids.global_id;
  const std::int64_t group = ids.group_id;

  // Byte mask of this access within the cell: conflicts require overlapping
  // bytes, not just a shared cell (sub-word wire-codec stores are 4 B).
  const std::uint64_t base = cell << 3;
  const std::uint64_t lo = addr > base ? addr - base : 0;
  const std::uint64_t hi = std::min<std::uint64_t>(8, addr + size - base);
  const std::uint8_t mask = static_cast<std::uint8_t>(
      (hi >= 8 ? 0xffu : (1u << hi) - 1u) & ~((1u << lo) - 1u));

  // Happens-before: accesses of the same work-item are program-ordered; a
  // barrier (phase boundary) orders work-items of the same group; nothing
  // orders different groups.
  auto unordered = [&](std::int64_t p_item, std::int64_t p_group, int p_phase) {
    if (p_item < 0 || p_item == item) return false;
    if (shared) return p_phase == phase;  // local memory is private to the group
    return p_group != group || p_phase == phase;
  };

  const Category cat = shared ? Category::SharedHazard : Category::GlobalRace;
  bool reported = false;
  auto conflict = [&](AccessKind other_kind, std::int64_t o_item, int o_phase,
                      const char* note) {
    if (reported) return;  // one finding per access
    reported = true;
    count(cat);
    if (static_cast<int>(report_.records.size()) < kMaxRecords) {
      Offence o;
      o.category = cat;
      o.kind = kind;
      o.addr = addr;
      o.size = size;
      o.phase = phase;
      o.item = item;
      o.group = group;
      o.other_item = o_item;
      o.other_phase = o_phase;
      o.other_kind = other_kind;
      o.note = note;
      record(std::move(o));
    }
  };

  const char* const note_same_phase =
      shared ? "no barrier separates the conflicting local-memory accesses"
             : "conflicting accesses in the same epoch (no ordering barrier)";
  const char* const note_cross_group = "work-items of different groups are never ordered";

  auto note_for = [&](std::int64_t p_group) {
    return (!shared && p_group != group) ? note_cross_group : note_same_phase;
  };

  switch (kind) {
    case AccessKind::Load:
      if ((mask & c.w_mask) != 0 && unordered(c.w_item, c.w_group, c.w_phase)) {
        conflict(AccessKind::Store, c.w_item, c.w_phase, note_for(c.w_group));
      } else if ((mask & c.a_mask) != 0 && unordered(c.a_item, c.a_group, c.a_phase)) {
        conflict(AccessKind::Atomic, c.a_item, c.a_phase, note_for(c.a_group));
      }
      break;
    case AccessKind::Store:
    case AccessKind::Atomic:
      if ((mask & c.w_mask) != 0 && unordered(c.w_item, c.w_group, c.w_phase)) {
        conflict(AccessKind::Store, c.w_item, c.w_phase, note_for(c.w_group));
      } else if (kind == AccessKind::Store && (mask & c.a_mask) != 0 &&
                 unordered(c.a_item, c.a_group, c.a_phase)) {
        conflict(AccessKind::Atomic, c.a_item, c.a_phase, note_for(c.a_group));
      } else {
        for (int i = 0; i < c.r_count; ++i) {
          if ((mask & c.r_mask[i]) != 0 &&
              unordered(c.r_item[i], c.r_group[i], c.r_phase)) {
            conflict(AccessKind::Load, c.r_item[i], c.r_phase, note_for(c.r_group[i]));
            break;
          }
        }
        // >= 3 distinct readers in the epoch: at least one differs from us.
        if (!reported && c.r_many && (mask & c.r_many_mask) != 0 &&
            (shared ? c.r_phase == phase : true)) {
          conflict(AccessKind::Load, -1, c.r_phase, "multiple unordered readers of this cell");
        }
      }
      break;
  }

  // Update the shadow cell.  Repeat accesses by the recorded item widen its
  // byte mask (program order covers them); a different item replaces the
  // entry, exactly like the pre-mask shadow did.
  if (kind == AccessKind::Load) {
    if (c.r_phase != phase) {
      c.r_phase = phase;
      c.r_count = 0;
      c.r_many = false;
      c.r_many_mask = 0;
    }
    bool seen = false;
    for (int i = 0; i < c.r_count; ++i) {
      if (c.r_item[i] == item) {
        c.r_mask[i] |= mask;
        seen = true;
      }
    }
    if (!seen) {
      if (c.r_count < 2) {
        c.r_item[c.r_count] = item;
        c.r_group[c.r_count] = group;
        c.r_mask[c.r_count] = mask;
        ++c.r_count;
      } else {
        c.r_many = true;
        c.r_many_mask |= mask;
      }
    }
  } else if (kind == AccessKind::Store) {
    if (c.w_item == item) {
      c.w_mask |= mask;
    } else {
      c.w_item = item;
      c.w_mask = mask;
    }
    c.w_group = group;
    c.w_phase = phase;
  } else {
    if (c.a_item == item) {
      c.a_mask |= mask;
    } else {
      c.a_item = item;
      c.a_mask = mask;
    }
    c.a_group = group;
    c.a_phase = phase;
  }
}

bool LaunchContext::global_access(const minisycl::ItemIds& ids, int phase, AccessKind kind,
                                  const void* p, std::uint32_t size, bool masked, int op_pos) {
  if (masked) return false;  // predicated-off lanes issue no transactions
  const std::uint64_t addr = reinterpret_cast<std::uint64_t>(p);
  ++report_.checked_global;

  const RegionStatus st = classify(addr, size);
  if (st != RegionStatus::Valid) {
    const Category cat =
        st == RegionStatus::Freed ? Category::GlobalUseAfterFree : Category::GlobalOOB;
    count(cat);
    if (static_cast<int>(report_.records.size()) < kMaxRecords) {
      Offence o;
      o.category = cat;
      o.kind = kind;
      o.addr = addr;
      o.size = size;
      o.phase = phase;
      o.item = ids.global_id;
      o.group = ids.group_id;
      if (cat == Category::GlobalUseAfterFree) {
        auto it = freed_.upper_bound(addr);
        --it;
        o.note = format_region_note("allocation was freed before the launch", it->first,
                                    it->second);
      } else {
        auto it = live_.upper_bound(addr);
        if (it != live_.begin() && addr < std::prev(it)->first + std::prev(it)->second) {
          --it;
          o.note = format_region_note("access overruns the containing allocation", it->first,
                                      it->second);
        } else {
          o.note = "no live allocation or declared region contains this address";
        }
      }
      record(std::move(o));
    }
    return false;
  }

  note_warp_op(1, ids, phase, kind, addr, size, masked, op_pos);
  const std::uint64_t first = addr >> 3;
  const std::uint64_t last = (addr + size - 1) >> 3;
  for (std::uint64_t cell = first; cell <= last; ++cell) {
    check_cell(global_cells_, cell, ids, phase, kind, /*shared=*/false, addr, size);
  }
  return true;
}

bool LaunchContext::shared_access(const minisycl::ItemIds& ids, int phase, AccessKind kind,
                                  std::int64_t offset, std::uint32_t size, bool masked,
                                  int op_pos) {
  if (masked) return false;
  ++report_.checked_shared;

  const bool in_bounds =
      offset >= 0 && offset + static_cast<std::int64_t>(size) <=
                         static_cast<std::int64_t>(report_.shared_bytes);
  if (!in_bounds) {
    count(Category::SharedOOB);
    if (static_cast<int>(report_.records.size()) < kMaxRecords) {
      Offence o;
      o.category = Category::SharedOOB;
      o.kind = kind;
      o.addr = static_cast<std::uint64_t>(offset);
      o.size = size;
      o.phase = phase;
      o.item = ids.global_id;
      o.group = ids.group_id;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "launch requested %d B of local memory",
                    report_.shared_bytes);
      o.note = buf;
      record(std::move(o));
    }
    return false;
  }

  note_warp_op(2, ids, phase, kind, static_cast<std::uint64_t>(offset), size, masked, op_pos);

  if (kind == AccessKind::Load) {
    bool uninit = false;
    for (std::int64_t b = offset; b < offset + static_cast<std::int64_t>(size); ++b) {
      uninit = uninit || shared_init_[static_cast<std::size_t>(b)] == 0;
    }
    if (uninit) {
      count(Category::UninitSharedRead);
      if (static_cast<int>(report_.records.size()) < kMaxRecords) {
        Offence o;
        o.category = Category::UninitSharedRead;
        o.kind = kind;
        o.addr = static_cast<std::uint64_t>(offset);
        o.size = size;
        o.phase = phase;
        o.item = ids.global_id;
        o.group = ids.group_id;
        o.note = "local-accessor bytes read before any work-item stored them";
        record(std::move(o));
      }
    }
  } else {
    for (std::int64_t b = offset; b < offset + static_cast<std::int64_t>(size); ++b) {
      shared_init_[static_cast<std::size_t>(b)] = 1;
    }
  }

  const std::uint64_t first = static_cast<std::uint64_t>(offset) >> 3;
  const std::uint64_t last = (static_cast<std::uint64_t>(offset) + size - 1) >> 3;
  for (std::uint64_t cell = first; cell <= last; ++cell) {
    check_cell(shared_cells_, cell, ids, phase, kind, /*shared=*/true,
               static_cast<std::uint64_t>(offset), size);
  }
  return true;  // uninitialised loads still read (garbage), like real hardware
}

void LaunchContext::branch_event(const minisycl::ItemIds& ids, int phase, std::uint32_t target,
                                 bool masked, int op_pos) {
  if (masked) return;
  const int warp = ids.local_id / kMachine.warp_size;
  WarpOp& op = warp_ops_[warp_op_key(phase, warp, op_pos)];
  op.space = 3;
  op.phase = phase;
  if (op.item < 0) op.item = ids.global_id;
  if (!op.has_target) {
    op.target0 = target;
    op.has_target = true;
  } else if (op.target0 != target) {
    op.divergent = true;
  }
}

void LaunchContext::note_warp_op(std::uint8_t space, const minisycl::ItemIds& ids, int phase,
                                 AccessKind kind, std::uint64_t addr, std::uint32_t size,
                                 bool masked, int op_pos) {
  if (masked) return;
  const int warp = ids.local_id / kMachine.warp_size;
  WarpOp& op = warp_ops_[warp_op_key(phase, warp, op_pos)];
  op.space = space;
  op.kind = kind;
  op.any_store = op.any_store || kind != AccessKind::Load;
  op.phase = phase;
  if (op.item < 0) op.item = ids.global_id;
  op.accesses.push_back(gpusim::LaneAccess{addr, static_cast<std::uint8_t>(size),
                                           static_cast<std::uint8_t>(ids.local_id %
                                                                     kMachine.warp_size)});
}

void LaunchContext::flush_warp_ops() {
  std::vector<std::uint64_t> sectors;
  for (auto& [key, op] : warp_ops_) {
    (void)key;
    if (op.space == 3) {
      if (op.divergent) {
        count(Category::DivergentBranch);
        if (static_cast<int>(report_.records.size()) < kMaxRecords) {
          Offence o;
          o.category = Category::DivergentBranch;
          o.phase = op.phase;
          o.item = op.item;
          o.group = group_;
          o.note = "active lanes of the warp chose different branch targets";
          record(std::move(o));
        }
      }
      continue;
    }
    if (op.accesses.empty()) continue;
    const std::span<const gpusim::LaneAccess> span(op.accesses.data(), op.accesses.size());
    if (op.space == 1) {
      gpusim::coalesce_sectors(span, kMachine.sector_bytes, sectors);
      std::uint64_t bytes = 0;
      for (const gpusim::LaneAccess& a : op.accesses) bytes += a.size;
      constexpr auto sector = static_cast<std::uint64_t>(kMachine.sector_bytes);
      const std::uint64_t ideal = std::max<std::uint64_t>(1, (bytes + sector - 1) / sector);
      if (static_cast<double>(sectors.size()) > kCoalesceSlack * static_cast<double>(ideal)) {
        count(Category::UncoalescedAccess);
        if (static_cast<int>(report_.records.size()) < kMaxRecords) {
          Offence o;
          o.category = Category::UncoalescedAccess;
          o.kind = op.kind;
          o.addr = op.accesses.front().addr;
          o.size = op.accesses.front().size;
          o.phase = op.phase;
          o.item = op.item;
          o.group = group_;
          char buf[96];
          std::snprintf(buf, sizeof(buf), "warp op touches %zu sectors (ideal %llu)",
                        sectors.size(), static_cast<unsigned long long>(ideal));
          o.note = buf;
          record(std::move(o));
        }
      }
    } else {
      const gpusim::BankAnalysis ba =
          gpusim::analyze_shared(span, kMachine.shared_banks, kMachine.shared_bank_bytes);
      if (ba.excessive() > 0) {
        count(Category::SharedBankConflict);
        if (static_cast<int>(report_.records.size()) < kMaxRecords) {
          Offence o;
          o.category = Category::SharedBankConflict;
          o.kind = op.kind;
          o.addr = op.accesses.front().addr;
          o.size = op.accesses.front().size;
          o.phase = op.phase;
          o.item = op.item;
          o.group = group_;
          char buf[96];
          std::snprintf(buf, sizeof(buf), "warp op needs %u wavefronts (ideal %u)",
                        ba.wavefronts, ba.ideal);
          o.note = buf;
          record(std::move(o));
        }
      }
    }
  }
  warp_ops_.clear();
}

SanitizerReport LaunchContext::finish() { return std::move(report_); }

}  // namespace ksan
