#include "lattice/geometry.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace milc {

LatticeGeom::LatticeGeom(const Coords& dims) : dims_(dims) {
  volume_ = 1;
  bool overflow = false;
  for (int d = 0; d < kNdim; ++d) {
    const int e = dims_[static_cast<std::size_t>(d)];
    if (e < 2 || e % 2 != 0) {
      throw std::invalid_argument("LatticeGeom: extents must be even and >= 2, but dim " +
                                  std::to_string(d) + " has extent " + std::to_string(e));
    }
    stride_[static_cast<std::size_t>(d)] = volume_;
    overflow = overflow || __builtin_mul_overflow(volume_, e, &volume_);
  }
  // NeighborTable and the kernels hold checkerboard indices as int32.
  if (overflow || half_volume() > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument(
        "LatticeGeom: extents " + std::to_string(dims_[0]) + "x" + std::to_string(dims_[1]) +
        "x" + std::to_string(dims_[2]) + "x" + std::to_string(dims_[3]) +
        " hold more sites of one parity than an int32 index can address");
  }
}

std::int64_t LatticeGeom::full_index(const Coords& c) const {
  std::int64_t idx = 0;
  for (int d = 0; d < kNdim; ++d) {
    assert(c[static_cast<std::size_t>(d)] >= 0 &&
           c[static_cast<std::size_t>(d)] < dims_[static_cast<std::size_t>(d)]);
    idx += c[static_cast<std::size_t>(d)] * stride_[static_cast<std::size_t>(d)];
  }
  return idx;
}

Coords LatticeGeom::coords(std::int64_t full_idx) const {
  assert(full_idx >= 0 && full_idx < volume_);
  Coords c{};
  for (int d = 0; d < kNdim; ++d) {
    c[static_cast<std::size_t>(d)] =
        static_cast<int>(full_idx % dims_[static_cast<std::size_t>(d)]);
    full_idx /= dims_[static_cast<std::size_t>(d)];
  }
  return c;
}

std::int64_t LatticeGeom::full_index_of(Parity p, std::int64_t eo_idx) const {
  const std::int64_t base = eo_idx * 2;
  // One of {base, base+1} has the requested parity (x-extent is even).
  return parity(base) == p ? base : base + 1;
}

Coords LatticeGeom::displace(Coords c, int dim, int dist) const {
  const int n = dims_[static_cast<std::size_t>(dim)];
  int v = (c[static_cast<std::size_t>(dim)] + dist) % n;
  if (v < 0) v += n;
  c[static_cast<std::size_t>(dim)] = v;
  return c;
}

NeighborTable::NeighborTable(const LatticeGeom& geom, Parity target) : target_(target) {
  const std::int64_t half = geom.half_volume();
  idx_.resize(static_cast<std::size_t>(half * kNeighbors));
  for (std::int64_t s = 0; s < half; ++s) {
    const std::int64_t f = geom.full_index_of(target, s);
    const Coords c = geom.coords(f);
    for (int k = 0; k < kNdim; ++k) {
      for (int l = 0; l < kNlinks; ++l) {
        const std::int64_t nf = geom.full_index(geom.displace(c, k, kStencilOffsets[static_cast<std::size_t>(l)]));
        assert(geom.parity(nf) == opposite(target));
        idx_[static_cast<std::size_t>(s * kNeighbors + k * kNlinks + l)] =
            static_cast<std::int32_t>(geom.eo_index(nf));
      }
    }
  }
}

}  // namespace milc
