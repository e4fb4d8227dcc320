// test_wire.cpp — the halo wire-format contract (docs/WIRE.md).
//
// Covers every layer of the contract:
//  * the format grammar and the bytes-per-site / bytes-per-link tables
//    (these EXPECTs are the normative numbers the doc's tables cite);
//  * IEEE binary16 software conversion (round-to-nearest-even, overflow,
//    subnormals) behind the fp16 spinor wire;
//  * gauge wire frames: pack_links/unpack_links round trips at every
//    reconstruction scheme, and the corrupt-frame regression — a bit flip
//    in the *encoded* recon-12 bytes must be caught by the encoded-byte
//    checksum and healed by retransmitting the pristine frame, decoding
//    bit-for-bit to the clean answer;
//  * spinor halo round trips through the fused pack/convert kernels on
//    multi-dimension splits and anisotropic grids: fp64 bit-for-bit,
//    fp32/fp16 within the format's error floor;
//  * ksan and dsan stay clean on the fused reduced-precision kernels;
//  * the reliable-update sharded CG: reduced-wire solves are certified and
//    land on the fp64 answer, and the fp64 wire leaves the trajectory
//    bit-for-bit untouched.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "faultsim/faultsim.hpp"
#include "lattice/io.hpp"
#include "multidev/runner.hpp"
#include "multidev/sharded_cg.hpp"
#include "multidev/wire_format.hpp"
#include "su3/random_su3.hpp"

namespace milc::multidev {
namespace {

// ---------------------------------------------------------------------------
// Grammar and byte tables
// ---------------------------------------------------------------------------

TEST(WireFormat, GrammarRoundTrips) {
  const char* specs[] = {"fp64",     "fp32",     "fp16",     "fp64+r12", "fp64+r9",
                         "fp32+r12", "fp32+r9",  "fp16+r12", "fp16+r9",  "fp64+r18",
                         "fp32+r18", "fp16+r18"};
  for (const char* spec : specs) {
    WireFormat w;
    ASSERT_TRUE(parse_wire_format(spec, w)) << spec;
    WireFormat again;
    ASSERT_TRUE(parse_wire_format(to_string(w), again)) << to_string(w);
    EXPECT_EQ(w, again) << spec;
  }
  // "+r18" is the explicit spelling of the uncompressed default and prints
  // back without the suffix.
  WireFormat w;
  ASSERT_TRUE(parse_wire_format("fp32+r18", w));
  EXPECT_EQ(to_string(w), "fp32");
}

TEST(WireFormat, GrammarRejectsNonsense) {
  WireFormat w;
  EXPECT_FALSE(parse_wire_format("", w));
  EXPECT_FALSE(parse_wire_format("bogus", w));
  EXPECT_FALSE(parse_wire_format("fp8", w));
  EXPECT_FALSE(parse_wire_format("fp32+r7", w));
  EXPECT_FALSE(parse_wire_format("fp32+", w));
  EXPECT_FALSE(parse_wire_format("fp32+r12x", w));
}

TEST(WireFormat, DefaultIsExactFp64) {
  WireFormat w{};
  EXPECT_EQ(w.spinor, SpinorWire::fp64);
  EXPECT_EQ(w.gauge, Reconstruct::k18);
  EXPECT_FALSE(w.reduced());
  EXPECT_EQ(to_string(w), "fp64");
  EXPECT_EQ(wire_prec_field(w), "fp64");
  EXPECT_EQ(wire_recon_field(w), "-");  // tune-key default, old caches replay
  ASSERT_TRUE(parse_wire_format("fp32+r12", w));
  EXPECT_TRUE(w.reduced());
  EXPECT_EQ(wire_recon_field(w), "recon-12");
}

// The normative bytes-per-site / bytes-per-link tables of docs/WIRE.md §1.
TEST(WireFormat, BytesPerSiteTable) {
  EXPECT_EQ(spinor_site_bytes(SpinorWire::fp64), 48);  // 3 complex x 2 x 8 B
  EXPECT_EQ(spinor_site_bytes(SpinorWire::fp32), 24);  // 3 complex x 2 x 4 B
  EXPECT_EQ(spinor_site_bytes(SpinorWire::fp16), 12);  // 3 complex x 2 x 2 B
  EXPECT_EQ(gauge_link_bytes(Reconstruct::k18), 144);  // 18 reals x 8 B
  EXPECT_EQ(gauge_link_bytes(Reconstruct::k12), 96);   // 12 reals x 8 B
  EXPECT_EQ(gauge_link_bytes(Reconstruct::k9), 72);    //  9 reals x 8 B
}

TEST(WireFormat, HaloMessageBytesFollowTheFormat) {
  const LatticeGeom geom(12);
  const Partitioner part(geom, PartitionGrid{.devices = {1, 1, 2, 2}}, Parity::Even);
  for (const Shard& sh : part.shards()) {
    std::int64_t total_fp64 = 0, total_fp16 = 0;
    for (const HaloMsg& msg : sh.halo) {
      EXPECT_EQ(msg.wire_bytes(SpinorWire::fp64), msg.bytes());
      EXPECT_EQ(msg.wire_bytes(SpinorWire::fp32), msg.count() * 24);
      EXPECT_EQ(msg.wire_bytes(SpinorWire::fp16), msg.count() * 12);
      total_fp64 += msg.wire_bytes(SpinorWire::fp64);
      total_fp16 += msg.wire_bytes(SpinorWire::fp16);
    }
    EXPECT_EQ(sh.halo_wire_bytes(SpinorWire::fp64), total_fp64);
    EXPECT_EQ(sh.halo_wire_bytes(SpinorWire::fp16), total_fp16);
    EXPECT_EQ(sh.halo_wire_bytes(SpinorWire::fp64),
              4 * sh.halo_wire_bytes(SpinorWire::fp16));
  }
}

// ---------------------------------------------------------------------------
// IEEE binary16 software conversion (the fp16 wire's codec)
// ---------------------------------------------------------------------------

TEST(HalfConversion, ExactForRepresentableValues) {
  const double exact[] = {0.0,    1.0,   -1.0,     0.5,    -2.25,  1024.0,
                          0.125,  -0.375, 1.0 / 1024.0, 65504.0, -65504.0};
  for (const double v : exact) {
    EXPECT_EQ(half_to_float(float_to_half(static_cast<float>(v))),
              static_cast<float>(v))
        << v;
  }
}

TEST(HalfConversion, RoundsToNearestEven) {
  // 2049/2048 sits exactly between 1.0 and 1.0 + 2^-10: ties to even (1.0).
  EXPECT_EQ(half_to_float(float_to_half(1.0f + 0x1.0p-11f)), 1.0f);
  // One ULP above the tie rounds up to the next representable half.
  EXPECT_EQ(half_to_float(float_to_half(1.0f + 0x1.8p-11f)), 1.0f + 0x1.0p-10f);
}

TEST(HalfConversion, OverflowAndSubnormals) {
  // Values beyond the binary16 range saturate to infinity.
  EXPECT_TRUE(std::isinf(half_to_float(float_to_half(1.0e5f))));
  EXPECT_TRUE(std::isinf(half_to_float(float_to_half(-1.0e5f))));
  // The smallest binary16 subnormal round-trips; below half of it flushes
  // to (signed) zero.
  EXPECT_EQ(half_to_float(float_to_half(0x1.0p-24f)), 0x1.0p-24f);
  EXPECT_EQ(half_to_float(float_to_half(0x1.0p-26f)), 0.0f);
}

TEST(HalfConversion, RelativeErrorWithinHalfUlp) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.next_signed();  // |v| < 1, well inside half range
    const double back = half_to_float(float_to_half(static_cast<float>(v)));
    EXPECT_LE(std::abs(back - v), std::abs(v) * 0x1.0p-11 + 0x1.0p-25) << v;
  }
}

// ---------------------------------------------------------------------------
// Gauge wire frames (pack_links / unpack_links, docs/WIRE.md §3)
// ---------------------------------------------------------------------------

std::vector<SU3Matrix<dcomplex>> random_links(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SU3Matrix<dcomplex>> links(static_cast<std::size_t>(n));
  for (auto& u : links) u = random_su3(rng);
  return links;
}

TEST(GaugeWire, Recon18FrameIsBitExact) {
  const auto links = random_links(32, 11);
  std::vector<double> frame(links.size() * 18);
  pack_links(Reconstruct::k18, links, frame);
  std::vector<SU3Matrix<dcomplex>> out(links.size());
  unpack_links(Reconstruct::k18, frame, out);
  EXPECT_EQ(std::memcmp(links.data(), out.data(), links.size() * sizeof(links[0])), 0);
}

TEST(GaugeWire, ReducedFramesReconstructWithinRounding) {
  for (const Reconstruct r : {Reconstruct::k12, Reconstruct::k9}) {
    const auto links = random_links(32, 13);
    std::vector<double> frame(links.size() * static_cast<std::size_t>(reals_per_link(r)));
    pack_links(r, links, frame);
    std::vector<SU3Matrix<dcomplex>> out(links.size());
    unpack_links(r, frame, out);
    for (std::size_t i = 0; i < links.size(); ++i) {
      for (int row = 0; row < kColors; ++row) {
        for (int col = 0; col < kColors; ++col) {
          EXPECT_NEAR(out[i].e[row][col].re, links[i].e[row][col].re, 1e-12);
          EXPECT_NEAR(out[i].e[row][col].im, links[i].e[row][col].im, 1e-12);
        }
      }
    }
  }
}

// The faultsim regression behind run_attempt's corruption handling: the bit
// flip lands in the *encoded* wire bytes of a compressed recon-12 frame, the
// runner's checksum (io::checksum64) — also taken over encoded bytes —
// rejects the delivery, and the retransmitted pristine frame decodes
// bit-for-bit to the clean answer.
TEST(GaugeWire, CorruptRecon12FrameIsRejectedAndRetransmitBitExact) {
  const auto links = random_links(48, 17);
  std::vector<double> frame(links.size() * 12);
  pack_links(Reconstruct::k12, links, frame);
  const std::uint64_t sum = io::checksum64(frame.data(), frame.size() * sizeof(double));

  // Clean decode: the oracle the retransmission must reproduce.
  std::vector<SU3Matrix<dcomplex>> clean(links.size());
  unpack_links(Reconstruct::k12, frame, clean);

  // Delivery 1: one bit flipped somewhere in the compressed payload.
  std::vector<double> rx = frame;
  faultsim::flip_bit(rx.data(), rx.size() * sizeof(double), /*key=*/0xdecafbad);
  EXPECT_NE(io::checksum64(rx.data(), rx.size() * sizeof(double)), sum)
      << "the encoded-byte checksum must see the flip";

  // Delivery 2 (retransmission): pristine bytes, accepted, decoded.
  std::vector<double> rx2 = frame;
  ASSERT_EQ(io::checksum64(rx2.data(), rx2.size() * sizeof(double)), sum);
  std::vector<SU3Matrix<dcomplex>> healed(links.size());
  unpack_links(Reconstruct::k12, rx2, healed);
  EXPECT_EQ(std::memcmp(clean.data(), healed.data(), clean.size() * sizeof(clean[0])), 0);
}

// ---------------------------------------------------------------------------
// Spinor halo round trips through the fused pack/convert kernels
// ---------------------------------------------------------------------------

/// Largest |multi(wire) - single(exact)| for one Dslash on this wire
/// (mirrors the ABFT floors in sharded_cg.cpp and bench_scaling --wire).
double wire_floor(SpinorWire w) {
  switch (w) {
    case SpinorWire::fp64: return 0.0;
    case SpinorWire::fp32: return 1e-5;
    case SpinorWire::fp16: return 5e-2;
  }
  return 0.0;
}

void expect_halo_round_trip(const Coords& dims, const PartitionGrid& grid,
                            const WireFormat& fmt) {
  const DslashRunner single;
  const MultiDeviceRunner multi;
  DslashProblem exact(dims, 2024);
  single.run_functional(exact, Strategy::LP3_1, IndexOrder::kMajor, 768);

  DslashProblem problem(dims, 2024);
  multi.run_functional(problem, grid, Strategy::LP3_1, IndexOrder::kMajor, 768, fmt);
  const double diff = max_abs_diff(exact.c(), problem.c());
  if (fmt.reduced()) {
    EXPECT_LE(diff, wire_floor(fmt.spinor))
        << to_string(fmt) << " on " << grid.label();
  } else {
    EXPECT_EQ(diff, 0.0) << to_string(fmt) << " on " << grid.label();
  }
}

TEST(SpinorWire, MultiDimSplitRoundTrips) {
  for (const char* spec : {"fp64", "fp32+r12", "fp16+r9"}) {
    WireFormat fmt;
    ASSERT_TRUE(parse_wire_format(spec, fmt));
    expect_halo_round_trip(Coords{12, 12, 12, 12},
                           PartitionGrid{.devices = {1, 1, 2, 2}}, fmt);
  }
}

TEST(SpinorWire, AnisotropicGridRoundTrips) {
  for (const char* spec : {"fp64", "fp32", "fp16"}) {
    WireFormat fmt;
    ASSERT_TRUE(parse_wire_format(spec, fmt));
    // Unequal extents and a depth-3 face on the short z dimension.
    expect_halo_round_trip(Coords{12, 12, 12, 24},
                           PartitionGrid{.devices = {1, 1, 2, 2}}, fmt);
  }
}

TEST(SpinorWire, EightWaySplitRoundTrips) {
  WireFormat fmt;
  ASSERT_TRUE(parse_wire_format("fp32+r12", fmt));
  expect_halo_round_trip(Coords{12, 12, 12, 12},
                         PartitionGrid{.devices = {1, 2, 2, 2}}, fmt);
}

TEST(SpinorWire, Fp64WireIsBitForBitTheDefaultRun) {
  const MultiDeviceRunner multi;
  const PartitionGrid grid{.devices = {1, 1, 2, 2}};
  DslashProblem base(12, 2024);
  multi.run_functional(base, grid, Strategy::LP3_1, IndexOrder::kMajor, 768);
  DslashProblem explicit_fp64(12, 2024);
  multi.run_functional(explicit_fp64, grid, Strategy::LP3_1, IndexOrder::kMajor, 768,
                       WireFormat{});
  EXPECT_EQ(max_abs_diff(base.c(), explicit_fp64.c()), 0.0);
}

// ---------------------------------------------------------------------------
// Sanitizers over the fused reduced-precision kernels
// ---------------------------------------------------------------------------

TEST(SpinorWire, KsanCleanOnReducedFormats) {
  const MultiDeviceRunner multi;
  for (const char* spec : {"fp32+r12", "fp16+r9"}) {
    WireFormat fmt;
    ASSERT_TRUE(parse_wire_format(spec, fmt));
    DslashProblem problem(12, 2024);
    for (const ksan::SanitizerReport& rep :
         multi.sanitize_halo(problem, PartitionGrid::along(3, 2), fmt)) {
      EXPECT_TRUE(rep.clean()) << spec << ": " << rep.summary();
      EXPECT_GT(rep.checked_global, 0u) << rep.kernel;
    }
    DslashProblem px(12, 2024);
    for (const ksan::SanitizerReport& rep :
         multi.sanitize_exchange(px, PartitionGrid::along(3, 2), fmt)) {
      EXPECT_TRUE(rep.clean()) << spec << ": " << rep.summary();
    }
  }
}

TEST(SpinorWire, DsanCleanOnReducedWire) {
  const MultiDeviceRunner multi;
  WireFormat fmt;
  ASSERT_TRUE(parse_wire_format("fp32+r12", fmt));
  DslashProblem problem(12, 2024);
  MultiDevRequest mreq;
  mreq.grid = PartitionGrid{.devices = {1, 1, 2, 2}};
  mreq.req = RunRequest{.strategy = Strategy::LP3_1,
                        .order = IndexOrder::kMajor,
                        .local_size = 768,
                        .variant = Variant::SYCL};
  mreq.wire = fmt;
  for (const ksan::SanitizerReport& rep : multi.dsan_check(problem, mreq)) {
    EXPECT_TRUE(rep.clean()) << rep.summary();
  }
}

// ---------------------------------------------------------------------------
// Reliable-update sharded CG (docs/WIRE.md §5)
// ---------------------------------------------------------------------------

TEST(WireCg, ReducedWireSolvesAreCertifiedAndLandOnTheFp64Answer) {
  const Coords dims{8, 8, 8, 12};
  ShardedCgConfig cfg;
  cfg.cg.rel_tol = 1e-8;
  cfg.cg.max_iterations = 800;

  ShardedCgSolver ref_solver(dims, 2024, 0.5, PartitionGrid::along(3, 2), cfg);
  ColorField b(ref_solver.geom(), Parity::Even);
  b.fill_random(0x5eedULL);
  ColorField x_ref(ref_solver.geom(), Parity::Even);
  const ShardedCgResult ref = ref_solver.solve(b, x_ref);
  ASSERT_TRUE(ref.cg.converged);
  EXPECT_TRUE(ref.certified);
  EXPECT_EQ(ref.reliable_updates, 0);  // exact wire: no replacements

  double x_scale = 0.0;
  for (std::int64_t s = 0; s < x_ref.size(); ++s) {
    for (int c = 0; c < kColors; ++c) {
      x_scale = std::max({x_scale, std::abs(x_ref[s][c].re), std::abs(x_ref[s][c].im)});
    }
  }

  for (const char* spec : {"fp32+r12", "fp16+r9"}) {
    WireFormat fmt;
    ASSERT_TRUE(parse_wire_format(spec, fmt));
    ShardedCgConfig wcfg = cfg;
    wcfg.wire = fmt;
    ShardedCgSolver solver(dims, 2024, 0.5, PartitionGrid::along(3, 2), wcfg);
    ColorField x(solver.geom(), Parity::Even);
    const ShardedCgResult res = solver.solve(b, x);
    EXPECT_TRUE(res.cg.converged) << spec;
    EXPECT_TRUE(res.certified) << spec << ": " << res.summary();
    EXPECT_GT(res.reliable_updates, 0) << spec;
    // Certification pins the exact-wire true residual under rel_tol, so the
    // solution error is O(cond * rel_tol) regardless of the wire format.
    EXPECT_LE(max_abs_diff(x_ref, x), 1e-4 * x_scale) << spec;
  }
}

TEST(WireCg, Fp64WireLeavesTheTrajectoryBitForBit) {
  const Coords dims{8, 8, 8, 12};
  ShardedCgConfig cfg;
  cfg.cg.rel_tol = 1e-8;
  cfg.cg.max_iterations = 400;

  ShardedCgSolver base_solver(dims, 2024, 0.5, PartitionGrid::along(3, 2), cfg);
  ColorField b(base_solver.geom(), Parity::Even);
  b.fill_random(0x5eedULL);
  ColorField x_base(base_solver.geom(), Parity::Even);
  const ShardedCgResult base = base_solver.solve(b, x_base);

  ShardedCgConfig fcfg = cfg;
  ASSERT_TRUE(parse_wire_format("fp64", fcfg.wire));
  ShardedCgSolver fp64_solver(dims, 2024, 0.5, PartitionGrid::along(3, 2), fcfg);
  ColorField x_fp64(fp64_solver.geom(), Parity::Even);
  const ShardedCgResult res = fp64_solver.solve(b, x_fp64);

  ASSERT_TRUE(base.cg.converged);
  ASSERT_TRUE(res.cg.converged);
  EXPECT_EQ(res.cg.iterations, base.cg.iterations);
  EXPECT_EQ(res.reliable_updates, 0);
  EXPECT_EQ(max_abs_diff(x_base, x_fp64), 0.0);
}

}  // namespace
}  // namespace milc::multidev
