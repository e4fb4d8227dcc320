// log2.hpp — the exact base-2 logarithm behind every power-of-two geometry
// value of the memory models (cache line and sector sizes, DRAM interleave,
// row, channel and bank counts, shared-memory banks), which replace run-time
// division by shifts and masks.
#pragma once

#include <bit>
#include <stdexcept>
#include <string>

namespace gpusim {

/// log2(v) for a positive power of two; otherwise throws
/// std::invalid_argument("<what> must be a power of two, got <v>").
inline int exact_log2(int v, const char* what) {
  if (v <= 0 || !std::has_single_bit(static_cast<unsigned>(v))) {
    throw std::invalid_argument(std::string(what) + " must be a power of two, got " +
                                std::to_string(v));
  }
  return std::countr_zero(static_cast<unsigned>(v));
}

}  // namespace gpusim
