// Worker-count invariance of the profiled executor.  A profiled launch runs
// on host worker threads that each own a set of SMs, while the launching
// thread replays L2 and DRAM in the serial schedule's order; every statistic
// and every output must equal the one-worker run's, bit for bit, at any
// worker count — including more workers than CPUs, and more than the SMs a
// launch occupies.  A kernel that throws is rethrown on the launching thread
// at every worker count, without a hang (this binary's tests carry a ctest
// TIMEOUT) and without std::terminate.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/compressed.hpp"
#include "core/dispatch.hpp"
#include "core/precision.hpp"
#include "core/problem.hpp"
#include "core/strategy.hpp"
#include "lattice/soa.hpp"
#include "minisycl/executor.hpp"
#include "multidev/halo_kernels.hpp"
#include "qudaref/staggered_test.hpp"
#include "wilson/wilson.hpp"

namespace milc {
namespace {

using minisycl::LaunchSpec;

/// Eight workers on a four-CPU host is intended: oversubscription must not
/// change a number either.
constexpr std::array<int, 4> kWorkers = {1, 2, 3, 8};

static_assert(std::has_unique_object_representations_v<gpusim::TraceCounters>,
              "TraceCounters is compared byte for byte");

/// Every double a stats record carries, in a fixed order.
std::array<double, 19> doubles_of(const gpusim::KernelStats& s) {
  return {s.occupancy.theoretical, s.occupancy.achieved, s.timing.dram_s,  s.timing.latency_s,
          s.timing.l1_s,           s.timing.shared_s,    s.timing.issue_s, s.timing.atomic_s,
          s.timing.barrier_s,      s.timing.total_s,     s.duration_us,    s.gflops,
          s.sm_throughput_pct,     s.peak_pct,           s.l1_throughput_pct, s.l1_miss_pct,
          s.l2_miss_pct,           s.shared_kb_per_group, s.avg_divergent_branches};
}

void expect_same_stats(const gpusim::KernelStats& ref, const gpusim::KernelStats& st,
                       const std::string& what) {
  EXPECT_EQ(std::memcmp(&ref.counters, &st.counters, sizeof(gpusim::TraceCounters)), 0)
      << what << ": trace counters differ (l2 hits " << ref.counters.l2_sector_hits << " vs "
      << st.counters.l2_sector_hits << ", dram row hits " << ref.counters.dram_row_hits << " vs "
      << st.counters.dram_row_hits << ", issue slots " << ref.counters.warp_issue_slots
      << " vs " << st.counters.warp_issue_slots << ")";
  const auto a = doubles_of(ref);
  const auto b = doubles_of(st);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << what << ": double #" << i << " " << a[i] << " vs " << b[i];
  }
  EXPECT_STREQ(ref.timing.bound_by, st.timing.bound_by) << what;
  EXPECT_EQ(ref.occupancy.waves, st.occupancy.waves) << what;
}

template <typename T>
std::span<std::byte> bytes_of(T* data, std::size_t n) {
  return std::as_writable_bytes(std::span<T>(data, n));
}

/// Profile `kernel` at every worker count, each run from a zeroed `out`.
/// Each run must write the functional run's output and return the
/// one-worker run's statistics.
template <typename Kernel>
void expect_worker_invariant(const std::string& what, const LaunchSpec& spec,
                             const Kernel& kernel, std::span<std::byte> out) {
  const gpusim::MachineModel m = gpusim::a100();
  std::ranges::fill(out, std::byte{0});
  minisycl::execute_functional(spec, kernel);
  const std::vector<std::byte> functional(out.begin(), out.end());
  ASSERT_TRUE(std::ranges::any_of(functional, [](std::byte v) { return v != std::byte{0}; }))
      << what << ": the kernel wrote nothing, so the comparison would be vacuous";

  gpusim::KernelStats ref;
  for (const int w : kWorkers) {
    std::ranges::fill(out, std::byte{0});
    const gpusim::KernelStats st =
        minisycl::detail::execute_profiled(w, m, spec, kernel, what);
    const std::string at = what + " at " + std::to_string(w) + " worker(s)";
    EXPECT_TRUE(std::ranges::equal(out, functional)) << at << ": output differs";
    if (w == 1) {
      ref = st;
      EXPECT_GT(ref.duration_us, 0.0) << at;
    } else {
      expect_same_stats(ref, st, at);
    }
  }
}

DslashProblem& problem() {
  static DslashProblem p(8);
  return p;
}

std::span<std::byte> bytes_of(ColorField& f) {
  return bytes_of(f.data(), static_cast<std::size_t>(f.size()));
}

// ---------------------------------------------------------------------------
// The paper's strategies, every index order, on their first paper local size
// ---------------------------------------------------------------------------

struct DslashConfig {
  Strategy strategy;
  IndexOrder order;
};

std::vector<DslashConfig> all_configs() {
  std::vector<DslashConfig> v;
  for (const Strategy s : all_strategies()) {
    for (const IndexOrder o : orders_of(s)) v.push_back({s, o});
  }
  return v;
}

class WorkerInvariance : public ::testing::TestWithParam<DslashConfig> {};

TEST_P(WorkerInvariance, DslashStrategy) {
  const auto [s, o] = GetParam();
  DslashProblem& p = problem();
  const DslashArgs<dcomplex> a = p.args();
  const int local_size = paper_local_sizes(s, o, p.sites()).front();
  with_dslash_kernel(a, s, o, /*use_syclcplx=*/false, [&](const auto& kernel) {
    using K = std::decay_t<decltype(kernel)>;
    expect_worker_invariant(config_label(s, o, local_size),
                            dslash_launch<K>(a, a.sites, s, local_size), kernel, bytes_of(p.c()));
  });
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, WorkerInvariance, ::testing::ValuesIn(all_configs()),
                         [](const ::testing::TestParamInfo<DslashConfig>& param) {
                           std::string name = std::string(to_string(param.param.strategy)) +
                                              "_" + to_string(param.param.order);
                           for (char& ch : name) {
                             if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// The other kernel families
// ---------------------------------------------------------------------------

TEST(WorkerInvariance, Recon12Dslash) {
  DslashProblem& p = problem();
  const CompressedGaugeDevice gauge(p.view());
  CompressedArgs a;
  for (int l = 0; l < kNlinks; ++l) a.links[l] = gauge.family(l);
  a.b = p.b().data();
  a.c_out = p.c().data();
  a.neighbors = p.neighbors().data();
  a.sites = p.sites();
  expect_worker_invariant("3LP-1 recon-12 /96", recon12_spec(a, 96),
                          Dslash3LP1Recon12Kernel{a}, bytes_of(p.c()));
}

TEST(WorkerInvariance, FloatDslash) {
  DslashProblem& p = problem();
  const FloatGaugeDevice gauge(p.view());
  const FloatColorField b(p.b());
  FloatColorField c(p.geom(), p.target_parity());
  DslashArgs<scomplex> a;
  for (int l = 0; l < kNlinks; ++l) a.links[l] = gauge.family(l);
  a.b = b.data();
  a.c_out = c.data();
  a.neighbors = p.neighbors().data();
  a.sites = gauge.sites();
  using K = Dslash3LP1Kernel<Order3::kMajor, scomplex>;
  expect_worker_invariant("3LP-1 float /96", dslash_launch<K>(a, a.sites, Strategy::LP3_1, 96),
                          K{.args = a}, bytes_of(c.data(), static_cast<std::size_t>(c.size())));
}

TEST(WorkerInvariance, WilsonDslash) {
  DslashProblem& p = problem();
  wilson::WilsonField in(p.geom(), opposite(p.target_parity()));
  wilson::WilsonField out(p.geom(), p.target_parity());
  in.fill_random(11);
  const wilson::WilsonArgs a{.fwd = p.view().family(0),
                             .bck = p.view().family(2),
                             .in = in.data(),
                             .out = out.data(),
                             .neighbors = p.neighbors().data(),
                             .sites = p.sites()};
  expect_worker_invariant("wilson-dslash /128", wilson::wilson_spec(a, 128),
                          wilson::WilsonDslashKernel{a},
                          bytes_of(out.data(), static_cast<std::size_t>(out.size())));
}

TEST(WorkerInvariance, QudaRecon18) {
  DslashProblem& p = problem();
  const SoAGauge gauge(p.view(), Reconstruct::k18);
  const SoAColor b(p.b());
  SoAColor c(p.geom(), p.target_parity());
  qudaref::QudaArgs a;
  a.gauge = gauge.data();
  a.reals = gauge.reals();
  a.pairs = gauge.pairs();
  a.scheme = Reconstruct::k18;
  a.b = b.data();
  a.c_out = c.data();
  a.neighbors = p.neighbors().data();
  a.sites = p.sites();
  expect_worker_invariant("quda recon-18 /128", qudaref::quda_spec(a, 128),
                          qudaref::QudaStaggeredKernel{a},
                          bytes_of(c.data(), static_cast<std::size_t>(kColors * p.sites())));
}

TEST(WorkerInvariance, HaloPackAndUnpack) {
  DslashProblem& p = problem();
  constexpr int kLocal = 96;
  constexpr std::int64_t kCount = 293;  // a padded, partly masked last group
  std::vector<std::int32_t> slots(kCount);
  for (std::int64_t i = 0; i < kCount; ++i) {
    slots[static_cast<std::size_t>(i)] = static_cast<std::int32_t>((i * 7) % p.sites());
  }
  std::vector<dcomplex> wire(static_cast<std::size_t>(kCount * kColors));
  const multidev::HaloPackKernel pack{
      .src = p.b().data(), .slots = slots.data(), .wire = wire.data(), .count = kCount};
  const LaunchSpec pack_spec{multidev::halo_global_size(kCount, kLocal), kLocal, 0, 1,
                             multidev::HaloPackKernel::traits(), {}};
  expect_worker_invariant("halo-pack", pack_spec, pack, bytes_of(wire.data(), wire.size()));

  std::vector<SU3Vector<dcomplex>> field(static_cast<std::size_t>(p.sites() + kCount));
  const multidev::HaloUnpackKernel unpack{
      .wire = wire.data(), .field = field.data(), .ghost_base = p.sites(), .count = kCount};
  const LaunchSpec unpack_spec{multidev::halo_global_size(kCount, kLocal), kLocal, 0, 1,
                               multidev::HaloUnpackKernel::traits(), {}};
  expect_worker_invariant("halo-unpack", unpack_spec, unpack,
                          bytes_of(field.data(), field.size()));
}

// ---------------------------------------------------------------------------
// Synthetic kernels at the schedule's edges
// ---------------------------------------------------------------------------

/// Every lane of every group adds 1.0 to one double: groups on different
/// workers update it at once, and the sum of ones is exact in any order.
struct OneTargetAtomics {
  static constexpr int kPhases = 1;
  double* sink;

  template <typename Lane>
  void operator()(Lane& lane, int) const {
    lane.flops(1);
    lane.atomic_add(sink, 1.0);
  }
};

TEST(WorkerInvariance, CrossGroupAtomicsOntoOneDouble) {
  double sink = 0.0;
  const LaunchSpec spec{1 << 16, 256, 0, 1, {}, {}};
  expect_worker_invariant("one-target atomics", spec, OneTargetAtomics{&sink},
                          bytes_of(&sink, 1));
  EXPECT_EQ(sink, 65536.0);
}

/// Five phases rotating a group's values through local memory (double
/// buffered), with a scattered global read in phase 0.
struct SharedRotation {
  static constexpr int kPhases = 5;
  const double* x;
  double* out;
  std::int64_t n;

  template <typename Lane>
  void operator()(Lane& lane, int phase) const {
    const int lid = lane.local_id();
    const int size = lane.local_range();
    if (phase == 0) {
      lane.template shared_store<double>(lid, lane.load(&x[(lane.global_id() * 37) % n]));
      return;
    }
    const int src = (lid + size - 1) % size;
    const double v = lane.template shared_load<double>((phase % 2 == 1 ? 0 : size) + src);
    lane.flops(2);
    lane.template shared_store<double>((phase % 2 == 1 ? size : 0) + lid, v * 1.5 + 1.0);
    if (phase == kPhases - 1) lane.store(&out[lane.global_id()], v);
  }
};

/// Two phases with a divergent branch, strided loads, shared exchange and a
/// store: exercises L1 reuse between the groups an SM hosts, L2, DRAM rows
/// and bank conflicts, at any local size.
struct Mixed {
  static constexpr int kPhases = 2;
  const double* x;
  double* out;
  std::int64_t n;

  template <typename Lane>
  void operator()(Lane& lane, int phase) const {
    const std::int64_t g = lane.global_id();
    const int lid = lane.local_id();
    if (phase == 0) {
      const double v = lane.load(&x[(g * 5) % n]) + lane.load(&x[(g + 64) % n]);
      lane.template shared_store<double>(lid, v);
      return;
    }
    const double w = lane.template shared_load<double>((lid * 2) % lane.local_range());
    lane.branch(lid % 3 == 0 ? 1 : 0);
    lane.flops(lid % 3 == 0 ? 8 : 2);
    lane.converge();
    lane.store(&out[g], w + static_cast<double>(lid));
  }
};

std::vector<double> ramp(std::int64_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = 0.5 * static_cast<double>(i) + 1.0;
  }
  return v;
}

TEST(WorkerInvariance, FivePhaseSharedRotation) {
  constexpr int kLocal = 96;
  constexpr std::int64_t kN = 400 * kLocal;
  const std::vector<double> x = ramp(kN);
  std::vector<double> out(kN);
  const LaunchSpec spec{kN, kLocal, 2 * kLocal * static_cast<int>(sizeof(double)), 5, {}, {}};
  expect_worker_invariant("5-phase rotation", spec, SharedRotation{x.data(), out.data(), kN},
                          bytes_of(out.data(), out.size()));
}

TEST(WorkerInvariance, PartialWarps) {
  constexpr int kLocal = 208;  // 6.5 warps
  constexpr std::int64_t kN = 150 * kLocal;
  const std::vector<double> x = ramp(kN);
  std::vector<double> out(kN);
  const LaunchSpec spec{kN, kLocal, kLocal * static_cast<int>(sizeof(double)), 2, {}, {}};
  expect_worker_invariant("local size 208", spec, Mixed{x.data(), out.data(), kN},
                          bytes_of(out.data(), out.size()));
}

TEST(WorkerInvariance, SeveralWaves) {
  constexpr int kLocal = 1024;
  constexpr std::int64_t kN = 300 * kLocal;  // 2 groups per SM: two waves
  const std::vector<double> x = ramp(kN);
  std::vector<double> out(kN);
  const LaunchSpec spec{kN, kLocal, kLocal * static_cast<int>(sizeof(double)), 2, {}, {}};
  expect_worker_invariant("300 groups of 1024", spec, Mixed{x.data(), out.data(), kN},
                          bytes_of(out.data(), out.size()));
  const auto occ = gpusim::compute_occupancy(
      gpusim::a100(),
      gpusim::LaunchConfig{kN, kLocal, kLocal * static_cast<int>(sizeof(double)), 40, 2});
  EXPECT_GE(occ.waves, 2);
}

TEST(WorkerInvariance, OneGroupFewerSmsThanWorkers) {
  constexpr int kLocal = 256;
  const std::vector<double> x = ramp(kLocal);
  std::vector<double> out(kLocal);
  const LaunchSpec spec{kLocal, kLocal, kLocal * static_cast<int>(sizeof(double)), 2, {}, {}};
  expect_worker_invariant("one group", spec, Mixed{x.data(), out.data(), kLocal},
                          bytes_of(out.data(), out.size()));
}

// ---------------------------------------------------------------------------
// Failures
// ---------------------------------------------------------------------------

/// Writes every item in phase 0; one item of `bad_group` throws in phase 1.
struct ThrowsInOneGroup {
  static constexpr int kPhases = 2;
  std::int64_t bad_group;
  double* out;

  template <typename Lane>
  void operator()(Lane& lane, int phase) const {
    if (phase == 1 && lane.group_id() == bad_group && lane.local_id() == 5) {
      throw std::runtime_error("kernel fault in group " + std::to_string(bad_group));
    }
    lane.store(&out[lane.global_id()], 1.0);
  }
};

TEST(ProfiledExecutorFailure, KernelThrowIsRethrownAtEveryWorkerCount) {
  constexpr int kLocal = 128;
  constexpr std::int64_t kGroups = 500;  // more groups than one wave
  std::vector<double> out(static_cast<std::size_t>(kGroups * kLocal));
  const LaunchSpec spec{kGroups * kLocal, kLocal, 0, 2, {}, {}};
  for (const std::int64_t bad : {std::int64_t{0}, std::int64_t{217}, kGroups - 1}) {
    for (const int w : kWorkers) {
      try {
        (void)minisycl::detail::execute_profiled(w, gpusim::a100(), spec,
                                                 ThrowsInOneGroup{bad, out.data()}, "throws");
        ADD_FAILURE() << "group " << bad << " at " << w << " worker(s): no exception";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "kernel fault in group " + std::to_string(bad))
            << w << " worker(s)";
      }
    }
  }
  // The executor is usable afterwards.
  const LaunchSpec ok{kLocal, kLocal, 0, 2, {}, {}};
  EXPECT_NO_THROW((void)minisycl::detail::execute_profiled(
      3, gpusim::a100(), ok, ThrowsInOneGroup{-1, out.data()}, "ok"));
}

TEST(ProfiledExecutorFailure, BadMachineModelInTheFrontEndIsRethrown) {
  gpusim::MachineModel m = gpusim::a100();
  m.shared_banks = 24;  // not a power of two: analyze_shared throws on a worker
  constexpr int kLocal = 96;
  constexpr std::int64_t kN = 300 * kLocal;
  const std::vector<double> x = ramp(kN);
  std::vector<double> out(kN);
  const LaunchSpec spec{kN, kLocal, 2 * kLocal * static_cast<int>(sizeof(double)), 5, {}, {}};
  for (const int w : kWorkers) {
    EXPECT_THROW((void)minisycl::detail::execute_profiled(
                     w, m, spec, SharedRotation{x.data(), out.data(), kN}, "bad banks"),
                 std::invalid_argument)
        << w << " worker(s)";
  }
}

// ---------------------------------------------------------------------------
// The pipeline split at L1
// ---------------------------------------------------------------------------

TEST(L1FrontEnd, RejectsSectorsBelowFourBytes) {
  gpusim::MachineModel m = gpusim::a100();
  m.sector_bytes = 2;
  m.line_bytes = 64;
  gpusim::TraceCounters ctr;
  EXPECT_THROW(gpusim::L1FrontEnd(m, ctr), std::invalid_argument);
  EXPECT_THROW((void)gpusim::PerfPipeline(m), std::invalid_argument);
}

/// Two front ends owning alternate SMs, their requests replayed in issue
/// order, count exactly what one front end owning every SM counts.
TEST(L1FrontEnd, SplitReplayMatchesOneCallPipeline) {
  const gpusim::MachineModel m = gpusim::a100();
  gpusim::PerfPipeline whole(m);
  gpusim::L1FrontEnd all(m, whole.counters());
  gpusim::PerfPipeline back(m);
  std::array<gpusim::TraceCounters, 2> ctr{};
  gpusim::L1FrontEnd even(m, ctr[0], 0, 2);
  gpusim::L1FrontEnd odd(m, ctr[1], 1, 2);

  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<gpusim::LaneAccess> lanes(32);
  for (int op = 0; op < 20000; ++op) {
    const int sm = static_cast<int>(next() % 4);
    const std::uint64_t base = (next() % 4096) * 64;
    const std::uint64_t stride = next() % 3 == 0 ? 8 : 520;
    for (int l = 0; l < 32; ++l) {
      lanes[static_cast<std::size_t>(l)] = {base + static_cast<std::uint64_t>(l) * stride, 8,
                                            static_cast<std::uint8_t>(l)};
    }
    gpusim::L1FrontEnd& front = sm % 2 == 0 ? even : odd;
    switch (next() % 3) {
      case 0:
        all.global_load(sm, lanes);
        front.global_load(sm, lanes);
        break;
      case 1:
        all.global_store(sm, lanes);
        front.global_store(sm, lanes);
        break;
      default:
        all.global_atomic(lanes);
        front.global_atomic(lanes);
        break;
    }
    whole.replay_l2(all.l2_requests());
    all.l2_requests().clear();
    back.replay_l2(front.l2_requests());
    front.l2_requests().clear();
  }
  whole.finalize();
  back.finalize();
  gpusim::TraceCounters split = back.counters();
  split.add(ctr[0]);
  split.add(ctr[1]);
  EXPECT_EQ(std::memcmp(&split, &whole.counters(), sizeof(gpusim::TraceCounters)), 0);
  EXPECT_EQ(back.dram().cost_units(), whole.dram().cost_units());
  EXPECT_GT(whole.counters().dram_row_hits, 0u);
}

}  // namespace
}  // namespace milc
