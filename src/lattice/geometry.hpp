// geometry.hpp — four-dimensional hypercubic lattice with checkerboard
// (even/odd) site indexing and periodic boundaries.
//
// The Dslash operator couples sites of one parity ("target" sites s*) to
// sites of the opposite parity displaced by +-1 and +-3 hops in each of the
// four dimensions (the staggered/HISQ 16-point stencil of eq. (1)).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

namespace milc {

inline constexpr int kNdim = 4;      ///< space-time dimensions (paper |k|).
inline constexpr int kNlinks = 4;    ///< link arrays: fat, long, fat-back, long-back (paper |l|).
inline constexpr int kNeighbors = kNdim * kNlinks;  ///< 16-point stencil.

/// Site parity on the checkerboard.
enum class Parity : std::uint8_t { Even = 0, Odd = 1 };

[[nodiscard]] constexpr Parity opposite(Parity p) {
  return p == Parity::Even ? Parity::Odd : Parity::Even;
}

/// Lattice coordinates (x, y, z, t), x fastest-varying in memory order.
using Coords = std::array<int, kNdim>;

/// Geometry of an X*Y*Z*T periodic lattice.  All extents must be even (and
/// >= 6 if third-neighbour hops must not wrap onto first neighbours; smaller
/// lattices are still well-defined, the stencil simply wraps).
class LatticeGeom {
 public:
  /// Hypercubic L^4 lattice.
  explicit LatticeGeom(int L) : LatticeGeom(Coords{L, L, L, L}) {}

  /// General (even-extent) lattice.  Throws std::invalid_argument on an odd
  /// or sub-2 extent, or when one parity holds more sites than INT32_MAX
  /// (the range of NeighborTable's checkerboard indices).
  explicit LatticeGeom(const Coords& dims);

  [[nodiscard]] const Coords& dims() const { return dims_; }
  [[nodiscard]] int extent(int d) const { return dims_[static_cast<std::size_t>(d)]; }
  [[nodiscard]] std::int64_t volume() const { return volume_; }
  /// Sites of one parity: |s*| = volume / 2.
  [[nodiscard]] std::int64_t half_volume() const { return volume_ / 2; }

  /// Full lexicographic index of coords (x fastest).
  [[nodiscard]] std::int64_t full_index(const Coords& c) const;

  /// Inverse of full_index.
  [[nodiscard]] Coords coords(std::int64_t full_idx) const;

  /// Parity of a site.
  [[nodiscard]] Parity parity(const Coords& c) const {
    return static_cast<Parity>((c[0] + c[1] + c[2] + c[3]) & 1);
  }
  [[nodiscard]] Parity parity(std::int64_t full_idx) const { return parity(coords(full_idx)); }

  /// Checkerboard index within a parity array.  Because the x-extent is even,
  /// sites 2m and 2m+1 always have opposite parity, so full_index/2 is a
  /// bijection between each parity class and [0, volume/2).
  [[nodiscard]] std::int64_t eo_index(std::int64_t full_idx) const { return full_idx >> 1; }
  [[nodiscard]] std::int64_t eo_index(const Coords& c) const { return full_index(c) >> 1; }

  /// Full index of the site with the given parity and checkerboard index.
  [[nodiscard]] std::int64_t full_index_of(Parity p, std::int64_t eo_idx) const;

  /// Coordinates displaced by `dist` (may be negative) along dimension `dim`,
  /// with periodic wrapping.
  [[nodiscard]] Coords displace(Coords c, int dim, int dist) const;

  /// Full index of the neighbour of `full_idx` at distance `dist` along `dim`.
  [[nodiscard]] std::int64_t neighbor(std::int64_t full_idx, int dim, int dist) const {
    return full_index(displace(coords(full_idx), dim, dist));
  }

 private:
  Coords dims_{};
  std::int64_t volume_ = 0;
  std::array<std::int64_t, kNdim> stride_{};  // index strides per dimension
};

/// Neighbour offsets of the staggered stencil, in the order the kernels'
/// l-loop visits the link arrays: fat forward (+1), long forward (+3),
/// fat backward (-1), long backward (-3).
inline constexpr std::array<int, kNlinks> kStencilOffsets{+1, +3, -1, -3};

/// Signs of the four stencil terms in eq. (1): forward terms add, backward
/// (adjoint) terms subtract.
inline constexpr std::array<double, kNlinks> kStencilSigns{+1.0, +1.0, -1.0, -1.0};

/// Precomputed gather table: for every target site s* (of `target` parity)
/// and every (dim k, link l), the checkerboard index of the source-parity
/// site the stencil reads.  Layout: idx[(s*16) + k*4 + l], matching the
/// loop nest of the kernels (the benchmark code precomputes exactly such
/// forward/backward index arrays).
class NeighborTable {
 public:
  NeighborTable() = default;
  NeighborTable(const LatticeGeom& geom, Parity target);

  [[nodiscard]] std::int32_t at(std::int64_t site, int dim, int link) const {
    return idx_[static_cast<std::size_t>(site * kNeighbors + dim * kNlinks + link)];
  }

  [[nodiscard]] const std::int32_t* data() const { return idx_.data(); }
  [[nodiscard]] std::size_t size() const { return idx_.size(); }
  [[nodiscard]] Parity target_parity() const { return target_; }

 private:
  std::vector<std::int32_t> idx_;
  Parity target_ = Parity::Even;
};

}  // namespace milc
