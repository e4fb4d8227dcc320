// selftest.cpp — checks of the benchmark's own helpers: nearest-rank
// percentiles and the ten-beyond tail rule, the traffic generator's seeding,
// the self-time arithmetic, and the stability of the digest.  Exit 0 when
// every check passes; run.py runs it before every workload.
#include <cmath>
#include <cstdio>
#include <string>

#include "core/problem.hpp"
#include "core/runner.hpp"
#include "harness.hpp"
#include "traffic.hpp"

namespace {

int g_failed = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what.c_str());
    ++g_failed;
  }
}

void test_percentiles() {
  using namespace milcbench;
  std::vector<double> v;
  for (int i = 1; i <= 40; ++i) v.push_back(41 - i);  // 40..1, unsorted input
  expect(percentile(v, 50) == 20, "p50 of 1..40 is the 20th value");
  expect(percentile(v, 100) == 40, "p100 is the maximum");
  expect(percentile(v, 1) == 1, "p1 of 40 samples is the minimum");
  expect(nearest_rank(99, 100) == 99 && nearest_rank(57, 100) == 57,
         "integer nearest rank has no rounding drift");
  expect(percentile({}, 50) == 0, "empty sample gives 0");

  const Tail t40 = tail_percentile(v);
  expect(t40.pct == 75 && t40.value == 30 && t40.beyond == 10,
         "40 samples: p75 is the highest percentile with 10 beyond");
  std::vector<double> w(v.begin(), v.begin() + 20);
  const Tail t20 = tail_percentile(w);
  expect(t20.pct == 50 && t20.beyond == 10, "20 samples: the tail is the median");
  w.pop_back();
  const Tail t19 = tail_percentile(w);
  expect(t19.pct == 47 && t19.beyond == 10, "19 samples: p47 leaves exactly 10 beyond");
  std::vector<double> tiny(10, 1.0);
  expect(tail_percentile(tiny).pct == 0, "10 samples support no tail");
  std::vector<double> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
  const Tail t1000 = tail_percentile(big);
  expect(t1000.pct == 99 && t1000.beyond == 10, "1000 samples: p99 has 10 beyond");
}

void test_traffic() {
  using namespace milcbench;
  const auto a = storm_traffic(7), b = storm_traffic(7), c = storm_traffic(8);
  const auto same = [](const auto& x, const auto& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].id != y[i].id || x[i].submit_us != y[i].submit_us ||
          x[i].deadline_us != y[i].deadline_us || x[i].spec != y[i].spec ||
          x[i].tenant != y[i].tenant || x[i].priority != y[i].priority ||
          x[i].source_seed != y[i].source_seed || x[i].rhs != y[i].rhs) {
        return false;
      }
    }
    return true;
  };
  expect(same(a, b), "same seed gives the same request list");
  expect(!same(a, c), "a different seed gives a different request list");
  expect(static_cast<int>(a.size()) == kStormRequests, "request count");
  bool open_loop = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double due = static_cast<double>(i) * kStormGapUs;
    open_loop = open_loop && a[i].submit_us >= due && a[i].submit_us < due + kStormGapUs / 2;
    open_loop = open_loop && a[i].deadline_us > a[i].submit_us;
  }
  expect(open_loop, "arrivals stay in their slot; deadlines follow submission");
  int per_spec_a[3] = {}, per_spec_c[3] = {};
  for (const auto& r : a) ++per_spec_a[r.spec];
  for (const auto& r : c) ++per_spec_c[r.spec];
  expect(per_spec_a[0] == per_spec_c[0] && per_spec_a[2] == per_spec_c[2],
         "every seed draws the same class mix");
  const auto pa = storm_faults(7), pb = storm_faults(7), pc = storm_faults(8);
  bool same_schedule = pa.schedule.size() == pb.schedule.size();
  for (std::size_t i = 0; same_schedule && i < pa.schedule.size(); ++i) {
    same_schedule = pa.schedule[i].index == pb.schedule[i].index &&
                    pa.schedule[i].site_filter == pb.schedule[i].site_filter;
  }
  expect(pa.seed == pb.seed && same_schedule, "same seed gives the same fault plan");
  expect(pa.seed != pc.seed, "a different seed gives a different fault plan");
}

void test_self_time() {
  using namespace milcbench;
  // root [0,10] with children [1,3] and [2,5] (overlapping) and [8,12]
  // (clipped to 10); grandchild [1,2] under the first child.
  std::vector<Span> s = {
      {"root", "", 0, 10, -1, false}, {"a", "", 1, 3, 0, false}, {"b", "", 2, 5, 0, false},
      {"c", "", 8, 12, 0, false},     {"g", "", 1, 2, 1, false},
  };
  const std::vector<double> self = self_times(s);
  expect(self[0] == 10 - (4 + 2), "root self = 10 - |[1,5] u [8,10]|");
  expect(self[1] == 1, "child self subtracts its grandchild");
  expect(self[2] == 3 && self[3] == 4 && self[4] == 1, "leaves keep their duration");
  const auto sums = layer_sums(s, "root");
  expect(sums.at("a").total.size() == 1 && sums.at("a").total[0] == 2, "layer total");
  expect(sums.at("root").self[0] == 4, "layer self");
}

void test_digest() {
  using namespace milcbench;
  Digest x, y;
  x.f64(0.0);
  y.f64(-0.0);
  expect(x.value() != y.value(), "digest sees bit patterns, not printed values");
  Digest p, q;
  p.str("ab");
  p.str("c");
  q.str("a");
  q.str("bc");
  expect(p.value() != q.value(), "strings enter with their length");

  // Two profiled runs of one configuration on separately built problems
  // (different heap addresses) must give one digest.
  const auto run_digest = [] {
    milc::DslashProblem problem(4, 11);
    const milc::RunResult r = milc::DslashRunner().run(problem, milc::RunRequest{});
    Digest d;
    d.f64(r.kernel_us);
    d.f64(r.gflops);
    d.u64(r.stats.counters.dram_sectors);
    d.u64(r.stats.counters.l1_tag_requests_global);
    return d.value();
  };
  const std::uint64_t first = run_digest();
  std::vector<double> ballast(12345, 1.0);  // shift the heap between runs
  expect(first == run_digest(), "digest of a profiled run is stable across allocations");
  (void)ballast;
}

}  // namespace

int main() {
  test_percentiles();
  test_traffic();
  test_self_time();
  test_digest();
  std::printf("milcbench selftest: %s (%d failed)\n", g_failed == 0 ? "ok" : "FAILED",
              g_failed);
  return g_failed == 0 ? 0 : 1;
}
