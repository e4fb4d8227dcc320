// wire_format.hpp — the halo wire-format contract (docs/WIRE.md).
//
// PR 5 made inter-node bytes the priced bottleneck; this header names the
// formats that shrink them.  A `WireFormat` picks (a) the spinor payload
// element — fp64 (the exact default), fp32 or fp16 — written *directly* by
// the pack kernels (the convert is fused into the gather, there is no
// staging copy), and (b) the gauge-link codec used where shards exchange
// link data (re-replication onto spares), reusing the recon-18/12/9
// schemes of `su3/reconstruct`.
//
// Byte contract (one complex number per wire element, kColors per site):
//
//   spinor wire    element   bytes/site      gauge wire   bytes/link
//   fp64           16 B      48              recon-18     144
//   fp32            8 B      24              recon-12      96
//   fp16            4 B      12              recon-9       72
//
// Checksums, aggregation frames, corruption and retransmission all operate
// on the *encoded* bytes — a reduced-format message is priced, checksummed
// and corrupted at its wire size, never at the fp64 size.
//
// fp16 uses IEEE binary16 with round-to-nearest-even, carried with one
// per-message scale factor (chosen so the largest packed component maps to
// 1.0) so payload magnitudes track the shrinking CG residual instead of
// drowning in the subnormal range; the scale rides in the message header
// next to the slot count, not in the payload bytes.  The exactness story
// for solvers on reduced wires is reliable updates: see docs/WIRE.md §5.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "complexlib/dcomplex.hpp"
#include "complexlib/scomplex.hpp"
#include "su3/reconstruct.hpp"
#include "su3/su3_vector.hpp"

namespace milc::multidev {

/// Spinor halo payload element format.
enum class SpinorWire { fp64, fp32, fp16 };

/// IEEE binary16 complex wire element (bit patterns, no arithmetic).
struct hcomplex {
  std::uint16_t re = 0;
  std::uint16_t im = 0;
};
static_assert(sizeof(hcomplex) == 4, "fp16 wire element must be 4 bytes");

/// float -> IEEE binary16 bits, round-to-nearest-even (overflow -> inf,
/// |x| < 2^-25 -> signed zero, NaN payload preserved in the top bit).
[[nodiscard]] inline std::uint16_t float_to_half(float f) {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const auto sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  const std::uint32_t exp = (x >> 23) & 0xffu;
  std::uint32_t mant = x & 0x7fffffu;
  if (exp == 0xffu) {  // inf / NaN
    return static_cast<std::uint16_t>(sign | 0x7c00u | (mant != 0 ? 0x200u : 0u));
  }
  const int e = static_cast<int>(exp) - 127 + 15;
  if (e >= 0x1f) return static_cast<std::uint16_t>(sign | 0x7c00u);  // overflow
  if (e <= 0) {
    if (e < -10) return sign;  // below half of the smallest subnormal
    mant |= 0x800000u;
    const int shift = 14 - e;  // in [14, 24]
    std::uint32_t half = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half & 1u) != 0)) ++half;
    return static_cast<std::uint16_t>(sign | half);
  }
  std::uint32_t half = (static_cast<std::uint32_t>(e) << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1fffu;
  // RNE; a carry out of the mantissa bumps the exponent, which is exactly
  // the rounding-to-inf behaviour IEEE specifies at the top of the range.
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u) != 0)) ++half;
  return static_cast<std::uint16_t>(sign | half);
}

/// IEEE binary16 bits -> float (exact: every half value is a float).
[[nodiscard]] inline float half_to_float(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (static_cast<std::uint32_t>(h) >> 10) & 0x1fu;
  std::uint32_t mant = static_cast<std::uint32_t>(h) & 0x3ffu;
  std::uint32_t bits = 0;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;
    } else {  // subnormal: renormalise into a float exponent
      int e = -1;
      do {
        mant <<= 1;
        ++e;
      } while ((mant & 0x400u) == 0);
      mant &= 0x3ffu;
      bits = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) | (mant << 13);
    }
  } else if (exp == 0x1fu) {
    bits = sign | 0x7f800000u | (mant << 13);
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(bits);
}

/// Wire bytes of one complex payload element.
[[nodiscard]] constexpr std::int64_t wire_complex_bytes(SpinorWire w) {
  switch (w) {
    case SpinorWire::fp64: return static_cast<std::int64_t>(sizeof(dcomplex));
    case SpinorWire::fp32: return static_cast<std::int64_t>(sizeof(scomplex));
    case SpinorWire::fp16: return static_cast<std::int64_t>(sizeof(hcomplex));
  }
  return static_cast<std::int64_t>(sizeof(dcomplex));
}

/// Wire bytes of one halo site (one SU(3) colour vector): 48 / 24 / 12.
[[nodiscard]] constexpr std::int64_t spinor_site_bytes(SpinorWire w) {
  return kColors * wire_complex_bytes(w);
}

/// Error floor of one Dslash on a reduced spinor wire, relative to the data
/// magnitude: the wire rounds ghost-site values on every apply, so results
/// agree with the exact wire only to this floor (0 / 1e-5 / 5e-2).  The
/// sharded CG widens its ABFT tolerance and audit slack by it, and
/// bench_scaling --wire certifies against it (docs/WIRE.md §5).
[[nodiscard]] constexpr double wire_error_floor(SpinorWire w) {
  switch (w) {
    case SpinorWire::fp64: return 0.0;
    case SpinorWire::fp32: return 1e-5;
    case SpinorWire::fp16: return 5e-2;
  }
  return 0.0;
}

/// Encoded wire bytes of one gauge link under a recon scheme: 144 / 96 / 72.
[[nodiscard]] constexpr std::int64_t gauge_link_bytes(Reconstruct r) {
  return static_cast<std::int64_t>(reals_per_link(r)) *
         static_cast<std::int64_t>(sizeof(double));
}

/// The complete wire contract of one distributed run.  The default is the
/// exact fp64 / recon-18 wire; anything else is a *reduced* wire and a
/// solver on top owes the reliable-update certification of docs/WIRE.md §5.
struct WireFormat {
  SpinorWire spinor = SpinorWire::fp64;
  Reconstruct gauge = Reconstruct::k18;

  [[nodiscard]] bool reduced() const {
    return spinor != SpinorWire::fp64 || gauge != Reconstruct::k18;
  }
  [[nodiscard]] bool operator==(const WireFormat&) const = default;
};

[[nodiscard]] inline const char* to_string(SpinorWire w) {
  switch (w) {
    case SpinorWire::fp64: return "fp64";
    case SpinorWire::fp32: return "fp32";
    case SpinorWire::fp16: return "fp16";
  }
  return "fp64";
}

/// "fp64", "fp32+r12", "fp16+r9", ... — the `--wire` grammar.
[[nodiscard]] inline std::string to_string(const WireFormat& w) {
  std::string s = to_string(w.spinor);
  switch (w.gauge) {
    case Reconstruct::k18: break;
    case Reconstruct::k12: s += "+r12"; break;
    case Reconstruct::k9: s += "+r9"; break;
  }
  return s;
}

/// Inverse of to_string(WireFormat): `<fp64|fp32|fp16>[+r<18|12|9>]`.
/// Returns false on malformed input, leaving `out` untouched.
[[nodiscard]] inline bool parse_wire_format(const std::string& text, WireFormat& out) {
  WireFormat w;
  std::string spinor = text;
  const std::size_t plus = text.find('+');
  if (plus != std::string::npos) {
    spinor = text.substr(0, plus);
    const std::string gauge = text.substr(plus + 1);
    if (gauge == "r18") {
      w.gauge = Reconstruct::k18;
    } else if (gauge == "r12") {
      w.gauge = Reconstruct::k12;
    } else if (gauge == "r9") {
      w.gauge = Reconstruct::k9;
    } else {
      return false;
    }
  }
  if (spinor == "fp64") {
    w.spinor = SpinorWire::fp64;
  } else if (spinor == "fp32") {
    w.spinor = SpinorWire::fp32;
  } else if (spinor == "fp16") {
    w.spinor = SpinorWire::fp16;
  } else {
    return false;
  }
  out = w;
  return true;
}

/// Tuning-key fields for a wire format.  The fp64/recon-18 default maps to
/// the grammar's own defaults ("fp64", "-") so every pre-wire-format cache
/// entry keeps its canonical string and replays bit-for-bit.
[[nodiscard]] inline std::string wire_prec_field(const WireFormat& w) {
  return to_string(w.spinor);
}
[[nodiscard]] inline std::string wire_recon_field(const WireFormat& w) {
  return w.gauge == Reconstruct::k18 ? std::string("-") : std::string(milc::to_string(w.gauge));
}

/// Per-element encode/decode fused into the pack/unpack kernels.  `scale`
/// multiplies values onto the wire, `inv_scale` multiplies them back; both
/// are 1.0 except on the fp16 wire (where scale = 1 / max|component| of the
/// message and inv_scale its reciprocal).  The fp64 specialisation is the
/// identity, so the fp64 kernels are literally the pre-wire-format kernels.
template <typename W>
struct WireCodec;

template <>
struct WireCodec<dcomplex> {
  static constexpr SpinorWire kFormat = SpinorWire::fp64;
  [[nodiscard]] static dcomplex encode(const dcomplex& v, double /*scale*/) { return v; }
  [[nodiscard]] static dcomplex decode(const dcomplex& v, double /*inv_scale*/) { return v; }
};

template <>
struct WireCodec<scomplex> {
  static constexpr SpinorWire kFormat = SpinorWire::fp32;
  [[nodiscard]] static scomplex encode(const dcomplex& v, double /*scale*/) {
    return scomplex{static_cast<float>(v.re), static_cast<float>(v.im)};
  }
  [[nodiscard]] static dcomplex decode(const scomplex& v, double /*inv_scale*/) {
    return dcomplex{static_cast<double>(v.re), static_cast<double>(v.im)};
  }
};

template <>
struct WireCodec<hcomplex> {
  static constexpr SpinorWire kFormat = SpinorWire::fp16;
  [[nodiscard]] static hcomplex encode(const dcomplex& v, double scale) {
    return hcomplex{float_to_half(static_cast<float>(v.re * scale)),
                    float_to_half(static_cast<float>(v.im * scale))};
  }
  [[nodiscard]] static dcomplex decode(const hcomplex& v, double inv_scale) {
    return dcomplex{static_cast<double>(half_to_float(v.re)) * inv_scale,
                    static_cast<double>(half_to_float(v.im)) * inv_scale};
  }
};

}  // namespace milc::multidev
