// bench_common.hpp — shared plumbing for the paper-reproduction benches:
// command-line options, result tables and ASCII charts.
//
// Every bench accepts:
//   --L <n>      lattice extent (default 16; the paper uses 32 — pass
//                --L 32 to reproduce at paper scale, ~10-15x slower to
//                simulate on one host core)
//   --seed <n>   gauge/source RNG seed
// An unknown flag, a missing value or a malformed or out-of-range number
// exits 2 with a message on stderr.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "core/problem.hpp"
#include "core/runner.hpp"
#include "lattice/geometry.hpp"

namespace milc::bench {

struct Options {
  int L = 16;
  std::uint64_t seed = 2024;
  std::string csv_path;  ///< when set, run_and_print also appends CSV rows
  std::string json_path; ///< when set, benches also emit a JSON document
  bool sanitize = false; ///< replay kernels under ksan instead of profiling
  bool dsan = false;     ///< record + check cluster-wide event graphs (dsan)
  bool faults = false;   ///< run under an installed FaultPlan + ResilientRunner
  std::uint64_t fault_seed = 2024;  ///< FaultPlan seed for --faults
  int nodes = 1;  ///< simulated node count; > 1 prices halos over the fabric tier
  std::string tune_cache_path;  ///< when set, persist tuning-cache entries here
  std::uint64_t stamp = 1;  ///< simulated provenance timestamp for recorded entries
  int spares = 0;  ///< hot-spare devices per node: lost shards re-replicate
                   ///< onto standbys instead of shrinking the grid
  /// Halo wire format, "<fp64|fp32|fp16>[+r<18|12|9>]" (docs/WIRE.md §1).
  /// Empty = not requested; bench_scaling's --wire mode certifies the
  /// format against the exact fp64 wire and exits nonzero on any failure.
  std::string wire;
  int max_devices = 8;  ///< bench_scaling: largest device count of its sweeps
  std::uint64_t chaos_seed = 2024;  ///< bench_serve: seed of the probabilistic storm
};

/// Exit 2 with "<prog>: <message>" on stderr: the command line is malformed.
[[noreturn]] inline void usage_error(const char* prog, const std::string& message) {
  std::fprintf(stderr, "%s: %s (see --help)\n", prog, message.c_str());
  std::exit(2);
}

/// Exit 2 with "<prog>: no warp-aligned local size for <config> on <n> sites"
/// on stderr: the lattice admits no launch of that configuration.
[[noreturn]] inline void no_local_size(const char* prog, const std::string& config,
                                       std::int64_t sites) {
  std::fprintf(stderr, "%s: no warp-aligned local size for %s on %lld sites\n", prog,
               config.c_str(), static_cast<long long>(sites));
  std::exit(2);
}

/// All of `text` as a decimal integer of type T that is at least `min`;
/// anything else (trailing characters, overflow, a value below `min`) is a
/// usage_error naming `flag`.
template <typename T>
T parse_number(const char* prog, const std::string& flag, const char* text, T min) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || v < min) {
    usage_error(prog, flag + " expects an integer >= " + std::to_string(min) + ", got '" +
                          text + "'");
  }
  return v;
}

inline Options parse_options(int argc, char** argv) {
  Options o;
  const char* prog = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(prog, flag + " expects a value");
      return argv[++i];
    };
    if (flag == "--L") {
      const char* text = value();
      o.L = parse_number(prog, flag, text, 2);
      try {
        (void)LatticeGeom(o.L);
      } catch (const std::invalid_argument& e) {
        usage_error(prog, flag + " " + text + ": " + e.what());
      }
    } else if (flag == "--seed") {
      o.seed = parse_number<std::uint64_t>(prog, flag, value(), 0);
    } else if (flag == "--csv") {
      o.csv_path = value();
    } else if (flag == "--json") {
      o.json_path = value();
    } else if (flag == "--sanitize") {
      o.sanitize = true;
    } else if (flag == "--dsan") {
      o.dsan = true;
    } else if (flag == "--faults") {
      o.faults = true;
      o.fault_seed = parse_number<std::uint64_t>(prog, flag, value(), 0);
    } else if (flag == "--nodes") {
      o.nodes = parse_number(prog, flag, value(), 1);
    } else if (flag == "--tune-cache") {
      o.tune_cache_path = value();
    } else if (flag == "--stamp") {
      o.stamp = parse_number<std::uint64_t>(prog, flag, value(), 0);
    } else if (flag == "--spares") {
      o.spares = parse_number(prog, flag, value(), 0);
    } else if (flag == "--wire") {
      o.wire = value();
    } else if (flag == "--max-devices") {
      o.max_devices = parse_number(prog, flag, value(), 1);
    } else if (flag == "--chaos") {
      o.chaos_seed = parse_number<std::uint64_t>(prog, flag, value(), 0);
    } else if (flag == "--help") {
      std::printf(
          "usage: %s [--L <extent>] [--seed <n>] [--csv <path>] [--json <path>] "
          "[--sanitize] [--dsan] [--faults <fault seed>] [--nodes <n>] "
          "[--tune-cache <path>] [--stamp <n>] [--spares <n>] "
          "[--wire <fp64|fp32|fp16>[+r<18|12|9>]] [--max-devices <n>] "
          "[--chaos <seed>]\n",
          prog);
      std::exit(0);
    } else {
      usage_error(prog, "unknown option '" + flag + "'");
    }
  }
  return o;
}

/// Print one sanitized-launch verdict row; returns true when error-free.
inline bool print_sanitize_row(const ksan::SanitizerReport& rep) {
  std::printf("  %-34s %s  errors=%llu lints=%llu  (%llu global / %llu shared accesses)\n",
              rep.kernel.c_str(), rep.clean() ? "clean" : "FAIL ",
              static_cast<unsigned long long>(rep.error_count()),
              static_cast<unsigned long long>(rep.lint_count()),
              static_cast<unsigned long long>(rep.checked_global),
              static_cast<unsigned long long>(rep.checked_shared));
  if (!rep.clean()) std::printf("%s", rep.summary().c_str());
  return rep.clean();
}

/// Escape a string for embedding inside a JSON string literal: quotes and
/// backslashes are backslash-escaped, control characters use the \uXXXX (or
/// short \n/\r/\t) forms.  Scenario names, shed reasons and fault details
/// flow into the sinks verbatim, so the emitted documents must stay valid
/// JSON whatever those strings contain.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Machine-readable sink for bench rows (one file per bench run).
class CsvSink {
 public:
  explicit CsvSink(const std::string& path) {
    if (path.empty()) return;
    file_ = std::fopen(path.c_str(), "w");
    if (file_ != nullptr) {
      std::fprintf(file_,
                   "label,gflops,kernel_us,per_iter_us,occupancy,bound_by,"
                   "l1_tag_requests,dram_sectors,shared_wavefronts,divergent_branches\n");
    }
  }
  ~CsvSink() {
    if (file_ != nullptr) std::fclose(file_);
  }
  CsvSink(const CsvSink&) = delete;
  CsvSink& operator=(const CsvSink&) = delete;

  void row(const RunResult& r) {
    if (file_ == nullptr) return;
    const auto& c = r.stats.counters;
    std::fprintf(file_, "\"%s\",%.3f,%.3f,%.3f,%.4f,%s,%llu,%llu,%llu,%llu\n",
                 r.label.c_str(), r.gflops, r.kernel_us, r.per_iter_us,
                 r.stats.occupancy.achieved, r.stats.timing.bound_by,
                 static_cast<unsigned long long>(c.l1_tag_requests_global),
                 static_cast<unsigned long long>(c.dram_sectors),
                 static_cast<unsigned long long>(c.shared_wavefronts),
                 static_cast<unsigned long long>(c.divergent_branches));
  }

 private:
  std::FILE* file_ = nullptr;
};

/// Machine-readable JSON sink: one document per bench run,
///   {"bench": "<name>", "schema_version": 4, "rows": [...], "meta": {...}}
/// Rows are either the standard RunResult columns (mirroring CsvSink) or
/// free-form key/value objects built with begin_row()/field()/end_row() —
/// the scaling bench uses the latter for its overlap metrics.  `meta` holds
/// run-level facts accumulated with meta(): the fault seed and recovery
/// summary of a --faults run, for instance.  Version history: 1 = bench +
/// rows only; 2 = adds schema_version and the meta object; 3 = elastic
/// recovery metrics in meta (recovery_time_us, rereplicated_bytes,
/// capacity_restored_devices, spares / spares_consumed / rejoins) emitted by
/// the chaos benches when a fault plan with spares or heals is active;
/// 4 = halo wire-format meta (wire_format, spinor_site_bytes,
/// gauge_link_bytes — see wire_meta() and docs/WIRE.md) emitted by the
/// benches that select a wire format.
class JsonSink {
 public:
  static constexpr int kSchemaVersion = 4;

  JsonSink(const std::string& path, const std::string& bench) {
    if (path.empty()) return;
    file_ = std::fopen(path.c_str(), "w");
    if (file_ != nullptr) {
      std::fprintf(file_, "{\"bench\": \"%s\", \"schema_version\": %d, \"rows\": [",
                   json_escape(bench).c_str(), kSchemaVersion);
    }
  }
  ~JsonSink() {
    if (file_ != nullptr) {
      std::fprintf(file_, "\n],\n\"meta\": {");
      for (std::size_t i = 0; i < meta_.size(); ++i) {
        std::fprintf(file_, "%s\n  %s", i == 0 ? "" : ",", meta_[i].c_str());
      }
      std::fprintf(file_, "\n}}\n");
      std::fclose(file_);
    }
  }
  JsonSink(const JsonSink&) = delete;
  JsonSink& operator=(const JsonSink&) = delete;

  /// Run-level key/value facts, emitted under "meta" when the sink closes.
  void meta(const char* key, double v) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"%s\": %.10g", key, v);
    meta_.emplace_back(buf);
  }
  void meta(const char* key, std::int64_t v) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"%s\": %lld", key, static_cast<long long>(v));
    meta_.emplace_back(buf);
  }
  void meta(const char* key, std::uint64_t v) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"%s\": %llu", key, static_cast<unsigned long long>(v));
    meta_.emplace_back(buf);
  }
  void meta(const char* key, const std::string& v) {
    meta_.emplace_back("\"" + std::string(key) + "\": \"" + json_escape(v) + "\"");
  }

  /// Run-level halo wire-format facts (schema_version >= 4): the format
  /// label ("fp64", "fp32+r12", ...) plus the encoded per-site spinor and
  /// per-link gauge byte counts of docs/WIRE.md's tables.
  void wire_meta(const std::string& format, std::int64_t spinor_site_bytes,
                 std::int64_t gauge_link_bytes) {
    meta("wire_format", format);
    meta("spinor_site_bytes", spinor_site_bytes);
    meta("gauge_link_bytes", gauge_link_bytes);
  }

  /// Run-level interconnect topology facts for multi-node benches: node
  /// count, devices per node, the partition grid label and the byte split
  /// between NVLink (intra-node) and the fabric (inter-node) wires.
  void topology_meta(int nodes, int devices_per_node, const std::string& grid_label,
                     std::int64_t intra_bytes, std::int64_t inter_bytes) {
    meta("nodes", static_cast<std::int64_t>(nodes));
    meta("devices_per_node", static_cast<std::int64_t>(devices_per_node));
    meta("split", grid_label);
    meta("intra_node_bytes", intra_bytes);
    meta("inter_node_bytes", inter_bytes);
  }

  void begin_row() {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\n  {", first_row_ ? "" : ",");
    first_row_ = false;
    first_field_ = true;
  }
  void field(const char* key, double v) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\"%s\": %.10g", sep(), key, v);
  }
  void field(const char* key, std::int64_t v) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\"%s\": %lld", sep(), key, static_cast<long long>(v));
  }
  void field(const char* key, std::uint64_t v) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\"%s\": %llu", sep(), key, static_cast<unsigned long long>(v));
  }
  void field(const char* key, const std::string& v) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\"%s\": \"%s\"", sep(), key, json_escape(v).c_str());
  }
  void end_row() {
    if (file_ != nullptr) std::fprintf(file_, "}");
  }

  /// One tuning-cache entry as a row: the canonical key plus the decision
  /// fields (the same values TuneCache::serialize persists, minus the
  /// authoritative bits field — the sink is for human/tool inspection, the
  /// cache file is the replay source of truth).
  void tune_row(const std::string& canonical_key, const tune::TuneEntry& e) {
    if (file_ == nullptr) return;
    begin_row();
    field("key", canonical_key);
    field("local_size", static_cast<std::int64_t>(e.local_size));
    field("order", e.order);
    field("grid", e.grid);
    field("per_iter_us", e.per_iter_us);
    field("bench", e.bench);
    field("seed", e.seed);
    field("stamp", e.stamp);
    end_row();
  }

  /// The standard bench row — same columns as CsvSink.
  void row(const RunResult& r) {
    if (file_ == nullptr) return;
    const auto& c = r.stats.counters;
    begin_row();
    field("label", r.label);
    field("gflops", r.gflops);
    field("kernel_us", r.kernel_us);
    field("per_iter_us", r.per_iter_us);
    field("occupancy", r.stats.occupancy.achieved);
    field("bound_by", std::string(r.stats.timing.bound_by));
    field("l1_tag_requests", static_cast<std::int64_t>(c.l1_tag_requests_global));
    field("dram_sectors", static_cast<std::int64_t>(c.dram_sectors));
    field("shared_wavefronts", static_cast<std::int64_t>(c.shared_wavefronts));
    field("divergent_branches", static_cast<std::int64_t>(c.divergent_branches));
    end_row();
  }

 private:
  const char* sep() {
    const char* s = first_field_ ? "" : ", ";
    first_field_ = false;
    return s;
  }
  std::FILE* file_ = nullptr;
  bool first_row_ = true;
  bool first_field_ = true;
  std::vector<std::string> meta_;
};

inline void print_header(const char* title, const Options& o, std::int64_t sites) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("lattice L=%d (%lld target sites), simulated NVIDIA A100-40GB\n", o.L,
              static_cast<long long>(sites));
  std::printf("theoretical FLOP per Dslash: %.1f MFLOP (paper: 600.8 at L=32)\n",
              dslash_flops(sites) / 1e6);
  std::printf("================================================================\n");
}

/// A labelled GFLOP/s series with an ASCII bar chart (Fig. 6 style).
class ResultChart {
 public:
  void add(std::string label, double gflops, std::string note = {}) {
    rows_.push_back({std::move(label), gflops, std::move(note)});
  }

  void set_reference(std::string label, double gflops) {
    ref_label_ = std::move(label);
    ref_ = gflops;
  }

  void print() const {
    double maxv = ref_;
    for (const auto& r : rows_) maxv = std::max(maxv, r.gflops);
    const int width = 46;
    for (const auto& r : rows_) {
      const int bar = maxv > 0 ? static_cast<int>(r.gflops / maxv * width) : 0;
      std::printf("  %-34s %8.1f |", r.label.c_str(), r.gflops);
      for (int i = 0; i < bar; ++i) std::printf("#");
      for (int i = bar; i < width; ++i) std::printf(" ");
      std::printf("| %s\n", r.note.c_str());
    }
    if (ref_ > 0.0) {
      const int pos = maxv > 0 ? static_cast<int>(ref_ / maxv * width) : 0;
      std::printf("  %-34s %8.1f  ", ref_label_.c_str(), ref_);
      for (int i = 0; i < pos; ++i) std::printf("-");
      std::printf("^\n");
    }
  }

  [[nodiscard]] double best() const {
    double b = 0.0;
    for (const auto& r : rows_) b = std::max(b, r.gflops);
    return b;
  }

 private:
  struct Row {
    std::string label;
    double gflops;
    std::string note;
  };
  std::vector<Row> rows_;
  std::string ref_label_;
  double ref_ = 0.0;
};

/// Runs one (strategy, order, local, variant) configuration and prints a
/// standard row; returns the result for further aggregation.
inline RunResult run_and_print(const DslashRunner& runner, DslashProblem& problem,
                               const RunRequest& req) {
  RunResult r = runner.run(problem, req);
  std::printf("  %-34s %8.1f GF/s  kernel=%9.1f us  occ=%4.1f%%  bound=%s\n", r.label.c_str(),
              r.gflops, r.kernel_us, 100.0 * r.stats.occupancy.achieved,
              r.stats.timing.bound_by);
  return r;
}

}  // namespace milc::bench
