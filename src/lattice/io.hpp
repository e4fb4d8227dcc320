// io.hpp — binary checkpointing of lattice fields.
//
// Production lattice codes spend weeks generating gauge configurations
// (paper §I: su3_rhmd_hisq "has been used in production for many years"),
// so durable, validated field I/O is part of the substrate.  Format: a
// fixed header (magic, payload kind, lattice extents, parity), the raw
// little-endian doubles, and an FNV-1a checksum over the payload.  Loads
// verify magic, kind, geometry and checksum and throw std::runtime_error on
// any mismatch.
#pragma once

#include <cstdint>
#include <string>

#include "lattice/fields.hpp"

namespace milc::io {

/// Payload kinds stored in the header.
enum class FieldKind : std::uint32_t {
  GaugeConfiguration = 1,
  ColorField = 2,
};

/// FNV-1a over a byte range (the checksum used by the format), from the
/// standard offset basis unless the caller names another.  Its values are
/// outputs (file headers, published fingerprints), so it stays byte-wise.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t basis = 0xcbf29ce484222325ull);

/// The in-process integrity checksum (halo payloads, CG snapshots): FNV-1a's
/// xor-multiply step over 64-bit words in four independent lanes, the byte
/// tail zero-padded into one more word, the lanes and the length folded
/// together.  Every step is a bijection of the word it takes and of the lane
/// it updates, so two payloads of one length that differ only inside one
/// 8-byte word (or only in the tail) always checksum differently: every
/// single-bit flip is caught.  The value depends on the host's byte order
/// and never leaves the process.
[[nodiscard]] std::uint64_t checksum64(const void* data, std::size_t bytes);

void save_gauge(const std::string& path, const LatticeGeom& geom,
                const GaugeConfiguration& cfg);
/// Loads into a configuration for `geom`; throws on any validation failure.
[[nodiscard]] GaugeConfiguration load_gauge(const std::string& path, const LatticeGeom& geom);

void save_color_field(const std::string& path, const LatticeGeom& geom, const ColorField& f);
[[nodiscard]] ColorField load_color_field(const std::string& path, const LatticeGeom& geom);

}  // namespace milc::io
