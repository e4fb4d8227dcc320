// harness.hpp — measurement helpers of the milcbench benchmark.
//
// Host clock, nearest-rank percentiles with the ten-beyond tail rule, the
// simulated-statistics digest, in-memory spans with self-time arithmetic,
// and the metric table every workload fills.  Header-only so the self-test
// binary checks exactly the code the benchmark runs.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace milcbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process so far, in MB (Linux reports KiB).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// splitmix64 — derives independent seeds (gauge, source, traffic, faults)
/// from the one workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- percentiles ---------------------------------------------------------

/// 1-based nearest rank of integer percentile `pct` in a sample of `n`:
/// ceil(pct * n / 100), clamped to [1, n].  Integer arithmetic, so no
/// floating-point rounding can move a rank.
inline std::size_t nearest_rank(int pct, std::size_t n) {
  const std::size_t r = (static_cast<std::size_t>(pct) * n + 99) / 100;
  return std::clamp<std::size_t>(r, 1, n);
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
inline double percentile(std::vector<double> v, int pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(pct, v.size()) - 1];
}

inline double median(const std::vector<double>& v) { return percentile(v, 50); }

/// Samples a reported tail percentile must leave above it.
constexpr std::size_t kTailBeyond = 10;

/// The tail a sample supports: the highest integer percentile whose
/// nearest-rank element still has at least kTailBeyond samples above it.
/// `pct` is 0 (and `value` 0) when the sample has no more than kTailBeyond
/// elements, so no percentile qualifies.
struct Tail {
  int pct = 0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline Tail tail_percentile(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  std::sort(v.begin(), v.end());
  for (int p = 99; p >= 1; --p) {
    const std::size_t rank = nearest_rank(p, v.size());
    if (v.size() - rank >= kTailBeyond) {
      t.pct = p;
      t.value = v[rank - 1];
      t.beyond = v.size() - rank;
      break;
    }
  }
  return t;
}

// --- simulated-statistics digest -----------------------------------------

/// Streaming FNV-1a.  Doubles enter by bit pattern, strings with their
/// length, so equal digests mean equal statistics, not equal printouts.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    u64(b);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

// --- spans ---------------------------------------------------------------

/// One recorded interval.  Host spans are in seconds since the tracer
/// started; simulated spans (`sim`) are in simulated microseconds and are
/// rebuilt after the fact, so they never nest under host spans.
struct Span {
  std::string name;
  std::string id;  ///< configuration, solve or request the span belongs to
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  bool sim = false;
};

/// In-memory span recorder.  Disabled, begin() returns -1 and end() does
/// nothing, so an untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int begin(std::string name, std::string id = {}) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.id = std::move(id);
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = seconds_since(t0_);
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int span) {
    if (span < 0) return;
    spans_[static_cast<std::size_t>(span)].end = seconds_since(t0_);
    while (!open_.empty()) {
      const int top = open_.back();
      open_.pop_back();
      if (top == span) break;
    }
  }

  void add_sim(std::string name, std::string id, double start_us, double end_us, int parent) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), std::move(id), start_us, end_us, parent, true});
  }

  [[nodiscard]] int last() const { return static_cast<int>(spans_.size()) - 1; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Run `fn` inside a span named `name`; returns what `fn` returns.
template <typename Fn>
auto in_span(Tracer& tr, const char* name, std::string id, Fn&& fn) {
  struct Closer {
    Tracer& t;
    int s;
    ~Closer() { t.end(s); }
  } closer{tr, tr.begin(name, std::move(id))};
  return fn();
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent.  Children of a span are
/// on the parent's clock, so host and simulated trees never mix.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = 0.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) covered += hi - lo;
      lo = a;
      hi = b;
      open = true;
    }
    if (open) covered += hi - lo;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

/// Per-layer totals of a host-clock trace, one entry per root span named
/// `root` (a setup or a measured pass): for every span name under that root,
/// the summed duration and the summed self time.
struct LayerSums {
  std::vector<double> total;  ///< one entry per root that contains the layer
  std::vector<double> self;
};

inline std::map<std::string, LayerSums> layer_sums(const std::vector<Span>& spans,
                                                   const std::string& root) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerSums> out;
  std::vector<int> root_of(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].sim) continue;
    const int p = spans[i].parent;
    root_of[i] = p < 0 ? static_cast<int>(i) : root_of[static_cast<std::size_t>(p)];
  }
  std::map<std::pair<std::string, int>, std::pair<double, double>> acc;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].sim || root_of[i] < 0) continue;
    if (spans[static_cast<std::size_t>(root_of[i])].name != root) continue;
    auto& a = acc[{spans[i].name, root_of[i]}];
    a.first += spans[i].end - spans[i].start;
    a.second += self[i];
  }
  for (const auto& [key, v] : acc) {
    out[key.first].total.push_back(v.first);
    out[key.first].self.push_back(v.second);
  }
  return out;
}

// --- metrics -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  const char* clock = "host";  ///< "host" (simulator wall/memory) or "sim"
};

/// The metrics one run produces, in insertion order; set() overwrites.
class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const char* clock = "host") {
    for (Metric& m : rows_) {
      if (m.name == name) {
        m = {name, value, unit, clock};
        return;
      }
    }
    rows_.push_back({name, value, unit, clock});
  }
  void sim(const std::string& name, double value, const std::string& unit) {
    set(name, value, unit, "sim");
  }
  [[nodiscard]] const std::vector<Metric>& rows() const { return rows_; }

 private:
  std::vector<Metric> rows_;
};

}  // namespace milcbench
