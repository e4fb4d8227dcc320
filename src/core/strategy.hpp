// strategy.hpp — enumeration and constraints of the paper's parallel
// strategies (§III) and work-item index orders.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/index_orders.hpp"

namespace milc {

enum class Strategy { LP1, LP2, LP3_1, LP3_2, LP3_3, LP4_1, LP4_2 };

enum class IndexOrder { kMajor, iMajor, lMajor };

[[nodiscard]] const char* to_string(Strategy s);
[[nodiscard]] const char* to_string(IndexOrder o);

/// Work-items per target site (1, 3, 12 or 48).
[[nodiscard]] int items_per_site(Strategy s);

/// Barrier-separated phases of the kernel (1, 2 or 3).
[[nodiscard]] int phases_of(Strategy s);

/// Index orders the paper evaluates for a strategy.
[[nodiscard]] std::vector<IndexOrder> orders_of(Strategy s);

/// The local-size divisibility constraint of §III: the partial-sum quartets
/// must not straddle a work-group.  k-major 3LP needs multiples of
/// |i| x |k| = 12; i-major needs |k| = 4; 4LP needs |i| x |k| x |l| = 48.
/// All additionally need a multiple of the warp size (§IV-B).
[[nodiscard]] int local_size_multiple(Strategy s, IndexOrder o, int warp_size = 32);

/// True when (local size, global size) satisfies every §III/§IV-B rule.
[[nodiscard]] bool is_valid_local_size(Strategy s, IndexOrder o, int local_size,
                                       std::int64_t sites, int warp_size = 32);

/// The local sizes the paper sweeps for this strategy/order on a lattice
/// with `sites` target sites ("96, 192, 384, and 768" for 3LP/4LP; powers of
/// two for 1LP, which must divide the site count).
[[nodiscard]] std::vector<int> paper_local_sizes(Strategy s, IndexOrder o, std::int64_t sites);

/// Human-readable configuration label, e.g. "3LP-1 k-major /768".
[[nodiscard]] std::string config_label(Strategy s, IndexOrder o, int local_size);

/// Inverse of to_string(IndexOrder); returns false for unknown names.  Used
/// when replaying persisted tuning-cache entries, which store the order by
/// its printed name.
[[nodiscard]] bool parse_index_order(const std::string& name, IndexOrder& out);

/// The recovery paths' strategy fallback ladder (docs/RESILIENCE.md): a
/// strategy that keeps faulting is abandoned for the next, simpler shape.
inline constexpr std::array<Strategy, 3> kFallbackLadder = {Strategy::LP3_1, Strategy::LP2,
                                                            Strategy::LP1};

/// All strategies in the paper's presentation order.
[[nodiscard]] const std::vector<Strategy>& all_strategies();

}  // namespace milc
