// workloads.hpp — the three milcbench workloads and the pass loop they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace milcbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where a traced run writes its spans
};

/// What one workload run reports.  `failed` counts operations whose output
/// check failed; a nonzero count makes the run incorrect and the exit code
/// nonzero.
struct Outcome {
  MetricTable metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> notes;     ///< human-readable context lines
  std::vector<std::string> failures;  ///< one line per failed check
  /// Host time of the timed region, per pass, split by tracing.
  std::vector<double> untraced_host_s;
  std::vector<double> traced_host_s;
  std::vector<double> setup_s;

  void fail(std::string what) {
    ++failed;
    failures.push_back(std::move(what));
  }

  /// Keep the first pass's digest; any pass that differs is a failure,
  /// because simulated statistics are a pure function of the seed.
  void check_digests(const std::vector<std::uint64_t>& per_pass) {
    digest = per_pass.front();
    for (std::uint64_t d : per_pass) {
      if (d != digest) fail("simulated statistics differ between passes of one seed");
    }
  }
};

Outcome run_fig6_sweep(const Options& opt, Tracer& tr);
Outcome run_sharded_solve(const Options& opt, Tracer& tr);
Outcome run_serve_storm(const Options& opt, Tracer& tr);

/// Repeat `setup()` `n` times, each inside a root "setup" span, recording
/// its wall time.  The last repetition's state is what the workload keeps.
template <typename Fn>
void run_setups(int n, Tracer& tr, Outcome& out, Fn&& setup) {
  for (int i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    in_span(tr, "setup", std::to_string(i), setup);
    out.setup_s.push_back(seconds_since(t0));
  }
}

/// Run measured passes while another pass of the last one's length still
/// fits in `opt.seconds`.  `pass(i)` returns the host time of its timed
/// region.  An untraced run needs one pass; a traced run makes pass 0
/// untraced (the overhead baseline) and then at least one traced pass.
template <typename Fn>
void run_passes(const Options& opt, Tracer& tr, Outcome& out, Fn&& pass) {
  const bool trace = tr.enabled();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0;; ++i) {
    const bool traced = trace && i > 0;
    tr.set_enabled(traced);
    const Clock::time_point p0 = Clock::now();
    const double host_s = pass(i);
    (traced ? out.traced_host_s : out.untraced_host_s).push_back(host_s);
    const double last = seconds_since(p0);
    const bool enough = trace ? !out.traced_host_s.empty() : true;
    if (enough && seconds_since(t0) + last > opt.seconds) break;
  }
  tr.set_enabled(trace);
}

}  // namespace milcbench
