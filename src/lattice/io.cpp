#include "lattice/io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace milc::io {

namespace {

constexpr std::uint64_t kMagic = 0x4d494c4353494d31ull;  // "MILCSIM1"

struct Header {
  std::uint64_t magic = kMagic;
  std::uint32_t kind = 0;
  std::uint32_t parity = 0;  // 0 even, 1 odd, 2 full-lattice
  std::int32_t dims[4] = {0, 0, 0, 0};
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};

void write_blob(const std::string& path, FieldKind kind, std::uint32_t parity,
                const LatticeGeom& geom, const void* payload, std::size_t bytes) {
  Header h;
  h.kind = static_cast<std::uint32_t>(kind);
  h.parity = parity;
  for (int d = 0; d < kNdim; ++d) h.dims[d] = geom.extent(d);
  h.payload_bytes = bytes;
  h.checksum = fnv1a(payload, bytes);

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("io: cannot open '" + path + "' for writing");
  os.write(reinterpret_cast<const char*>(&h), sizeof(h));
  os.write(static_cast<const char*>(payload), static_cast<std::streamsize>(bytes));
  if (!os) throw std::runtime_error("io: short write to '" + path + "'");
}

std::vector<char> read_blob(const std::string& path, FieldKind kind, std::uint32_t parity,
                            const LatticeGeom& geom) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("io: cannot open '" + path + "'");
  Header h;
  is.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!is || h.magic != kMagic) throw std::runtime_error("io: bad magic in '" + path + "'");
  if (h.kind != static_cast<std::uint32_t>(kind)) {
    throw std::runtime_error("io: wrong payload kind in '" + path + "'");
  }
  if (h.parity != parity) throw std::runtime_error("io: parity mismatch in '" + path + "'");
  for (int d = 0; d < kNdim; ++d) {
    if (h.dims[d] != geom.extent(d)) {
      throw std::runtime_error("io: lattice geometry mismatch in '" + path + "'");
    }
  }
  std::vector<char> payload(h.payload_bytes);
  is.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!is || is.gcount() != static_cast<std::streamsize>(payload.size())) {
    throw std::runtime_error("io: truncated payload in '" + path + "'");
  }
  if (fnv1a(payload.data(), payload.size()) != h.checksum) {
    throw std::runtime_error("io: checksum mismatch in '" + path + "' (corrupt file)");
  }
  return payload;
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t basis) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = basis;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t checksum64(const void* data, std::size_t bytes) {
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t words = bytes / 8;
  // Unaligned loads go through memcpy, which compiles to one plain load.
  const auto word = [p](std::size_t i) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i * 8, sizeof w);
    return w;
  };
  std::uint64_t lane[4] = {kBasis, kBasis, kBasis, kBasis};
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    for (std::size_t k = 0; k < 4; ++k) lane[k] = (lane[k] ^ word(i + k)) * kPrime;
  }
  for (; i < words; ++i) lane[i % 4] = (lane[i % 4] ^ word(i)) * kPrime;
  if (const std::size_t tail = bytes % 8; tail != 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + words * 8, tail);
    lane[words % 4] = (lane[words % 4] ^ w) * kPrime;
  }
  std::uint64_t h = kBasis;
  for (const std::uint64_t l : lane) h = (h ^ l) * kPrime;
  return (h ^ bytes) * kPrime;
}

void save_gauge(const std::string& path, const LatticeGeom& geom,
                const GaugeConfiguration& cfg) {
  // Payload: fat then long links, full lattice, [site][k] row-major matrices.
  const std::size_t n = static_cast<std::size_t>(geom.volume() * kNdim);
  std::vector<SU3Matrix<dcomplex>> buf;
  buf.reserve(2 * n);
  for (std::int64_t f = 0; f < geom.volume(); ++f) {
    for (int k = 0; k < kNdim; ++k) buf.push_back(cfg.fat(f, k));
  }
  for (std::int64_t f = 0; f < geom.volume(); ++f) {
    for (int k = 0; k < kNdim; ++k) buf.push_back(cfg.lng(f, k));
  }
  write_blob(path, FieldKind::GaugeConfiguration, 2, geom, buf.data(),
             buf.size() * sizeof(SU3Matrix<dcomplex>));
}

GaugeConfiguration load_gauge(const std::string& path, const LatticeGeom& geom) {
  const std::vector<char> payload = read_blob(path, FieldKind::GaugeConfiguration, 2, geom);
  const std::size_t n = static_cast<std::size_t>(geom.volume() * kNdim);
  if (payload.size() != 2 * n * sizeof(SU3Matrix<dcomplex>)) {
    throw std::runtime_error("io: gauge payload size mismatch in '" + path + "'");
  }
  GaugeConfiguration cfg(geom);
  const auto* mats = reinterpret_cast<const SU3Matrix<dcomplex>*>(payload.data());
  std::size_t idx = 0;
  for (std::int64_t f = 0; f < geom.volume(); ++f) {
    for (int k = 0; k < kNdim; ++k) cfg.fat(f, k) = mats[idx++];
  }
  for (std::int64_t f = 0; f < geom.volume(); ++f) {
    for (int k = 0; k < kNdim; ++k) cfg.lng(f, k) = mats[idx++];
  }
  return cfg;
}

void save_color_field(const std::string& path, const LatticeGeom& geom, const ColorField& f) {
  write_blob(path, FieldKind::ColorField, f.parity() == Parity::Even ? 0u : 1u, geom,
             f.data(), f.bytes());
}

ColorField load_color_field(const std::string& path, const LatticeGeom& geom) {
  // Try both parities; the header records which one was written.
  for (Parity p : {Parity::Even, Parity::Odd}) {
    std::ifstream is(path, std::ios::binary);
    if (!is) throw std::runtime_error("io: cannot open '" + path + "'");
    // Peek the parity field to avoid a throw-and-retry dance.
    char raw[sizeof(std::uint64_t) + sizeof(std::uint32_t) + sizeof(std::uint32_t)];
    is.read(raw, sizeof(raw));
    std::uint32_t parity = 0;
    std::memcpy(&parity, raw + sizeof(std::uint64_t) + sizeof(std::uint32_t),
                sizeof(parity));
    if (parity != (p == Parity::Even ? 0u : 1u)) continue;

    const std::vector<char> payload =
        read_blob(path, FieldKind::ColorField, parity, geom);
    ColorField field(geom, p);
    if (payload.size() != field.bytes()) {
      throw std::runtime_error("io: colour-field payload size mismatch in '" + path + "'");
    }
    std::memcpy(field.data(), payload.data(), payload.size());
    return field;
  }
  throw std::runtime_error("io: unrecognised parity in '" + path + "'");
}

}  // namespace milc::io
