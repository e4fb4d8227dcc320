// main.cpp — milcbench: runs one workload, checks its outputs and prints
// every metric it measured, on both clocks.
//
//   milcbench --workload <fig6-sweep|sharded-solve|serve-storm> --seed <n>
//             --seconds <s> [--trace <0|1>] [--trace-out <path>]
//
// The last stdout line is "MILCBENCH_RESULT <json>"; run.py turns it into
// the benchmark's result line.  Exit code 0 only when every check passed.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace milcbench {
namespace {

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Host-clock per-layer metrics from a traced run: for every span name, the
/// median over the root spans it occurs under (setups, probes, checks,
/// passes) of its summed duration (`<name>_s`) and
/// summed self time (`self.<name>_s`).
void layer_metrics(const Tracer& tr, MetricTable& m) {
  for (const char* root : {"setup", "probe", "check", "pass"}) {
    for (const auto& [name, sums] : layer_sums(tr.spans(), root)) {
      if (name != root) m.set(name + "_s", median(sums.total), "s");
      m.set("self." + name + "_s", median(sums.self), "s");
    }
  }
  const auto get = [&m](const std::string& name) {
    for (const Metric& x : m.rows())
      if (x.name == name) return x.value;
    return 0.0;
  };
  // Profiled / functional host time of the same Dslash work.
  if (get("core.functional_dslash_s") > 0.0) {
    m.set("gpusim.sim_overhead_x",
          get("core.profiled_dslash_s") / get("core.functional_dslash_s"), "x");
  } else if (get("multidev.apply_s") > 0.0) {
    // One apply is two functional Dslash; the priced run is one profiled one.
    const double apply_s = get("multidev.apply_s");
    m.set("gpusim.sim_overhead_x", get("multidev.price_s") / (apply_s / 2.0), "x");
    m.set("cg.self_s", get("cg.solve_s") - get("cg.applies") * apply_s, "s");
  }
}

void write_trace(const Options& opt, const Tracer& tr) {
  std::FILE* f = std::fopen(opt.trace_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("trace: cannot write %s\n", opt.trace_path.c_str());
    return;
  }
  const std::vector<double> self = self_times(tr.spans());
  std::fprintf(f, "{\"workload\": %s, \"seed\": %" PRIu64 ", \"spans\": [",
               json_string(opt.workload).c_str(), opt.seed);
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const Span& s = tr.spans()[i];
    std::fprintf(f,
                 "%s\n {\"name\": %s, \"id\": %s, \"clock\": \"%s\", \"start\": %s, "
                 "\"end\": %s, \"self\": %s, \"parent\": %d}",
                 i == 0 ? "" : ",", json_string(s.name).c_str(), json_string(s.id).c_str(),
                 s.sim ? "sim_us" : "host_s", num(s.start).c_str(), num(s.end).c_str(),
                 num(self[i]).c_str(), s.parent);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

int run(const Options& opt) {
  Tracer tr(opt.trace);
  Outcome out;
  if (opt.workload == "fig6-sweep") {
    out = run_fig6_sweep(opt, tr);
  } else if (opt.workload == "sharded-solve") {
    out = run_sharded_solve(opt, tr);
  } else if (opt.workload == "serve-storm") {
    out = run_serve_storm(opt, tr);
  } else {
    std::fprintf(stderr, "milcbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  MetricTable& m = out.metrics;
  m.set("setup_s", median(out.setup_s), "s");
  m.set("host_s", median(out.untraced_host_s), "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  if (opt.trace) {
    const double traced = median(out.traced_host_s);
    const double base = median(out.untraced_host_s);
    m.set("trace.host_s", traced, "s");
    m.set("trace.overhead_frac", (traced - base) / base, "fraction");
    m.set("trace.spans", static_cast<double>(tr.spans().size()), "count");
    layer_metrics(tr, m);
    write_trace(opt, tr);
  }

  std::printf("== milcbench %s  seed %" PRIu64 "  trace %d ==\n", opt.workload.c_str(),
              opt.seed, opt.trace ? 1 : 0);
  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  std::printf("passes: %zu untraced, %zu traced; setups: %zu\n", out.untraced_host_s.size(),
              out.traced_host_s.size(), out.setup_s.size());
  std::printf("sim digest: %016" PRIx64 " (FNV-1a over every simulated statistic)\n",
              out.digest);
  if (opt.trace) std::printf("trace: %s\n", opt.trace_path.c_str());
  for (const Metric& x : m.rows()) {
    std::printf("  %-34s %20.10g %-11s [%s]\n", x.name.c_str(), x.value, x.unit.c_str(),
                x.clock);
  }
  for (const std::string& f : out.failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  char digest[20];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, out.digest);
  json += ", \"digest\": \"" + std::string(digest) + "\", \"metrics\": {";
  for (std::size_t i = 0; i < m.rows().size(); ++i) {
    const Metric& x = m.rows()[i];
    json += (i == 0 ? "" : ", ") + json_string(x.name) + ": {\"value\": " + num(x.value) +
            ", \"unit\": " + json_string(x.unit) + ", \"clock\": \"" + x.clock + "\"}";
  }
  json += "}}";
  std::printf("MILCBENCH_RESULT %s\n", json.c_str());
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace milcbench

int main(int argc, char** argv) {
  milcbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--trace-out") {
      opt.trace_path = val;
    } else {
      std::fprintf(stderr, "milcbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: milcbench --workload <fig6-sweep|sharded-solve|serve-storm> "
                 "--seed <n> --seconds <s> [--trace <0|1>] [--trace-out <path>]\n");
    return 2;
  }
  if (opt.trace && opt.trace_path.empty()) opt.trace_path = "milcbench-trace.json";
  try {
    return milcbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "milcbench: %s\n", e.what());
    return 1;
  }
}
