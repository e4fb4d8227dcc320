// Profiler report formatting (the Table-I printer), the umbrella header, and
// profiled timing that does not depend on allocation history.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <sstream>
#include <vector>

#include "milc.hpp"  // the umbrella must compile and expose everything below

namespace {

TEST(FormatCount, MatchesTableOneStyle) {
  EXPECT_EQ(gpusim::format_count(0.5e6), "0.5M");
  EXPECT_EQ(gpusim::format_count(6.3e6), "6.3M");
  EXPECT_EQ(gpusim::format_count(190e6), "190M");
  EXPECT_EQ(gpusim::format_count(5461), "5.5K");
  EXPECT_EQ(gpusim::format_count(42), "42");
}

gpusim::KernelStats sample_stats(const char* name) {
  gpusim::KernelStats st;
  st.name = name;
  st.duration_us = 929.2;
  st.launch.global_size = 6291456;
  st.launch.local_size = 768;
  st.launch.shared_bytes_per_group = 12288;
  st.occupancy.achieved = 0.74;
  st.counters.l1_tag_requests_global = 86'000'000;
  st.counters.shared_wavefronts = 4'700'000;
  st.counters.shared_wavefronts_ideal = 2'300'000;
  st.shared_kb_per_group = 12.288;
  st.avg_divergent_branches = 0.0;
  return st;
}

TEST(PrintTable1, ContainsEveryRowAndColumn) {
  std::ostringstream os;
  const std::vector<gpusim::KernelStats> cols = {sample_stats("3LP-1 k"),
                                                 sample_stats("3LP-1 i")};
  gpusim::print_table1(os, cols);
  const std::string out = os.str();
  for (const char* needle :
       {"Duration (us)", "Work-items", "Achieved occupancy", "Peak performance",
        "L1/TEX cache throughput", "L1/TEX miss rate", "L2 miss rate",
        "Dyn. shared mem per WG", "L1 tag requests global", "L1 wavefronts shared",
        "Excessive L1 wavefronts shared", "Avg. divergent branches", "3LP-1 k", "3LP-1 i",
        "929.2", "6.3M", "86M", "12.3"}) {
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
  }
}

TEST(PrintKernelReport, ContainsTimingDecomposition) {
  std::ostringstream os;
  gpusim::KernelStats st = sample_stats("probe");
  st.timing.total_s = 929.2e-6;
  st.timing.dram_s = 900e-6;
  st.timing.bound_by = "dram";
  gpusim::print_kernel_report(os, st);
  const std::string out = os.str();
  EXPECT_NE(out.find("kernel: probe"), std::string::npos);
  EXPECT_NE(out.find("bound_by=dram"), std::string::npos);
  EXPECT_NE(out.find("occupancy:"), std::string::npos);
  EXPECT_NE(out.find("timing:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ARCHITECTURE.md invariant 3: simulated timing is a pure function of the
// launch, whatever the heap did before it.
// ---------------------------------------------------------------------------

constexpr std::size_t kCounterFields = sizeof(gpusim::TraceCounters) / sizeof(std::uint64_t);
static_assert(sizeof(gpusim::TraceCounters) == kCounterFields * sizeof(std::uint64_t),
              "TraceCounters holds 64-bit counters only");

/// A profiled launch's duration bits and every TraceCounters field.
struct ProfiledBits {
  std::uint64_t duration = 0;
  std::array<std::uint64_t, kCounterFields> counters{};
};

ProfiledBits bits_of(const gpusim::KernelStats& st) {
  ProfiledBits b;
  b.duration = std::bit_cast<std::uint64_t>(st.duration_us);
  std::memcpy(b.counters.data(), &st.counters, sizeof(st.counters));
  return b;
}

/// Every single-device kernel family profiled once on a fresh L=8 problem.
std::vector<ProfiledBits> profile_every_family() {
  milc::DslashProblem p(8, 2024);
  std::vector<ProfiledBits> out;

  const milc::RunRequest req{.strategy = milc::Strategy::LP3_1,
                             .order = milc::IndexOrder::kMajor,
                             .local_size = 96};
  out.push_back(bits_of(milc::DslashRunner{}.run(p, req).stats));

  const milc::FloatDslash fd(p.view(), p.neighbors());
  milc::FloatColorField fin(p.b());
  milc::FloatColorField fout(p.geom(), p.target_parity());
  out.push_back(bits_of(fd.profile(fin, fout, 96)));

  const milc::CompressedDslash cd(p.view(), p.neighbors());
  out.push_back(bits_of(cd.profile(p.b(), p.c(), 96)));

  const milc::wilson::WilsonField win(p.geom(), milc::opposite(p.target_parity()));
  milc::wilson::WilsonField wout(p.geom(), p.target_parity());
  const milc::wilson::WilsonDslash wd(p.view(), p.neighbors());
  out.push_back(bits_of(wd.profile(win, wout, 128)));

  milc::qudaref::StaggeredDslashTest quda(p);
  out.push_back(bits_of(quda.run_at(milc::Reconstruct::k18, 128).stats));
  return out;
}

TEST(ProfiledTiming, IndependentOfAllocationHistory) {
  // A live padding allocation moves where the next problem's fields land;
  // every family's launch declares its buffers, so neither its duration nor
  // any counter may move with it.
  const char* const kFamilies[] = {"DslashRunner 3LP-1 /96", "FloatDslash /96",
                                  "CompressedDslash /96", "WilsonDslash /128",
                                  "StaggeredDslashTest recon-18 /128"};
  std::vector<ProfiledBits> first;
  for (const std::size_t pad_bytes : {0, 64, 4144, 100000, 1048576}) {
    const std::vector<std::byte> pad(pad_bytes);
    const std::vector<ProfiledBits> got = profile_every_family();
    ASSERT_EQ(got.size(), std::size(kFamilies));
    if (first.empty()) {
      first = got;
      continue;
    }
    for (std::size_t d = 0; d < got.size(); ++d) {
      EXPECT_EQ(got[d].duration, first[d].duration)
          << kFamilies[d] << " after " << pad_bytes << " B of padding";
      EXPECT_EQ(got[d].counters, first[d].counters)
          << kFamilies[d] << " after " << pad_bytes << " B of padding";
    }
  }
}

TEST(UmbrellaHeader, ExposesTheMainEntryPoints) {
  // Compile-time proof that milc.hpp covers the advertised surface.
  milc::LatticeGeom geom(4);
  milc::DslashProblem problem(4, 1);
  milc::DslashRunner runner;
  minisycl::device dev;
  (void)geom;
  (void)dev;
  EXPECT_EQ(problem.sites(), 128);
  EXPECT_EQ(runner.machine().num_sms, 108);
}

}  // namespace
