// Field I/O: round-trips, validation and failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <vector>

#include "core/dslash_ref.hpp"
#include "lattice/io.hpp"

namespace milc {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Fnv1a, KnownValuesAndSensitivity) {
  EXPECT_EQ(io::fnv1a("", 0), 0xcbf29ce484222325ull);
  const char a[] = "lattice";
  const char b[] = "lattica";
  EXPECT_NE(io::fnv1a(a, sizeof(a)), io::fnv1a(b, sizeof(b)));
}

std::vector<unsigned char> seeded_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> v(n);
  for (unsigned char& b : v) b = static_cast<unsigned char>(rng());
  return v;
}

// The halo and snapshot checksums must catch every bit flip the fault
// injector can make: below one word, at one word, past it, at and around
// the four-lane block, and a long payload with a tail.
TEST(Checksum64, DetectsEverySingleBitFlip) {
  for (const std::size_t n : {1, 7, 8, 9, 31, 32, 33, 257}) {
    std::vector<unsigned char> p = seeded_bytes(n, 1000 + n);
    const std::uint64_t clean = io::checksum64(p.data(), n);
    for (std::size_t bit = 0; bit < n * 8; ++bit) {
      const auto mask = static_cast<unsigned char>(1u << (bit % 8));
      p[bit / 8] ^= mask;
      EXPECT_NE(io::checksum64(p.data(), n), clean) << n << " B, bit " << bit;
      p[bit / 8] ^= mask;
    }
    EXPECT_EQ(io::checksum64(p.data(), n), clean) << n << " B";
  }
}

// Word loads from any address: the same bytes at every offset within a
// word give one value.
TEST(Checksum64, IndependentOfAlignment) {
  const std::vector<unsigned char> p = seeded_bytes(67, 5);
  const std::uint64_t want = io::checksum64(p.data(), p.size());
  std::vector<unsigned char> buf(p.size() + 8);
  for (std::size_t off = 0; off < 8; ++off) {
    std::fill(buf.begin(), buf.end(), static_cast<unsigned char>(0xa5));
    std::copy(p.begin(), p.end(), buf.begin() + static_cast<std::ptrdiff_t>(off));
    EXPECT_EQ(io::checksum64(buf.data() + off, p.size()), want) << "offset " << off;
  }
}

// The zero-padded tail word does not hide the length: zero payloads of
// 0..24 bytes all differ.
TEST(Checksum64, LengthIsPartOfTheValue) {
  const std::vector<unsigned char> zeros(24, 0);
  std::set<std::uint64_t> seen;
  for (std::size_t n = 0; n <= zeros.size(); ++n) seen.insert(io::checksum64(zeros.data(), n));
  EXPECT_EQ(seen.size(), zeros.size() + 1);
}

TEST(IO, GaugeRoundTrip) {
  LatticeGeom geom(4);
  GaugeConfiguration cfg(geom);
  cfg.fill_random(123);
  const std::string path = temp_path("gauge_rt.bin");
  io::save_gauge(path, geom, cfg);
  const GaugeConfiguration back = io::load_gauge(path, geom);
  for (std::int64_t f = 0; f < geom.volume(); f += 13) {
    for (int k = 0; k < kNdim; ++k) {
      EXPECT_LT(max_abs_diff(cfg.fat(f, k), back.fat(f, k)), 0.0 + 1e-300);
      EXPECT_LT(max_abs_diff(cfg.lng(f, k), back.lng(f, k)), 0.0 + 1e-300);
    }
  }
  std::remove(path.c_str());
}

TEST(IO, ColorFieldRoundTripBothParities) {
  LatticeGeom geom(4);
  for (Parity p : {Parity::Even, Parity::Odd}) {
    ColorField f(geom, p);
    f.fill_random(p == Parity::Even ? 5u : 6u);
    const std::string path = temp_path("cf_rt.bin");
    io::save_color_field(path, geom, f);
    const ColorField back = io::load_color_field(path, geom);
    EXPECT_EQ(back.parity(), p);
    EXPECT_EQ(max_abs_diff(f, back), 0.0);
    std::remove(path.c_str());
  }
}

TEST(IO, RejectsMissingFile) {
  LatticeGeom geom(4);
  EXPECT_THROW((void)io::load_gauge(temp_path("does_not_exist.bin"), geom),
               std::runtime_error);
}

TEST(IO, RejectsWrongGeometry) {
  LatticeGeom g4(4), g6(6);
  GaugeConfiguration cfg(g4);
  cfg.fill_random(7);
  const std::string path = temp_path("gauge_geom.bin");
  io::save_gauge(path, g4, cfg);
  EXPECT_THROW((void)io::load_gauge(path, g6), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IO, RejectsWrongKind) {
  LatticeGeom geom(4);
  ColorField f(geom, Parity::Even);
  f.fill_random(8);
  const std::string path = temp_path("kind.bin");
  io::save_color_field(path, geom, f);
  EXPECT_THROW((void)io::load_gauge(path, geom), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IO, DetectsBitrot) {
  LatticeGeom geom(4);
  ColorField f(geom, Parity::Even);
  f.fill_random(9);
  const std::string path = temp_path("bitrot.bin");
  io::save_color_field(path, geom, f);
  // Flip one payload byte.
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(256, std::ios::beg);
    char c = 0;
    fs.read(&c, 1);
    fs.seekp(256, std::ios::beg);
    c = static_cast<char>(c ^ 0x40);
    fs.write(&c, 1);
  }
  EXPECT_THROW((void)io::load_color_field(path, geom), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IO, DetectsTruncation) {
  LatticeGeom geom(4);
  GaugeConfiguration cfg(geom);
  cfg.fill_random(10);
  const std::string path = temp_path("trunc.bin");
  io::save_gauge(path, geom, cfg);
  // Rewrite the file with the last 100 bytes missing.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(all.data(), static_cast<std::streamsize>(all.size() - 100));
  out.close();
  EXPECT_THROW((void)io::load_gauge(path, geom), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IO, SavedGaugeReproducesDslashExactly) {
  // End-to-end: a reloaded configuration must produce a bit-identical
  // Dslash result.
  LatticeGeom geom(4);
  GaugeConfiguration cfg(geom);
  cfg.fill_random(11);
  const std::string path = temp_path("e2e.bin");
  io::save_gauge(path, geom, cfg);
  const GaugeConfiguration back = io::load_gauge(path, geom);

  ColorField b(geom, Parity::Odd), c1(geom, Parity::Even), c2(geom, Parity::Even);
  b.fill_random(12);
  GaugeView v1(geom, cfg, Parity::Even), v2(geom, back, Parity::Even);
  NeighborTable nbr(geom, Parity::Even);
  dslash_reference(v1, nbr, b, c1);
  dslash_reference(v2, nbr, b, c2);
  EXPECT_EQ(max_abs_diff(c1, c2), 0.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace milc
