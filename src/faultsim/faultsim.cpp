#include "faultsim/faultsim.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

namespace faultsim {

namespace {

/// The installed injector.  A plain pointer + mutex (not magic-static inside
/// current()) so the fault-free fast path is one relaxed pointer read.
std::unique_ptr<Injector>& slot() {
  static std::unique_ptr<Injector> s;
  return s;
}
Injector* g_current = nullptr;
std::mutex g_mu;  // guards all Injector mutable state and install/uninstall

/// The site every allocation consult logs and schedule filters match.
const std::string kAllocSite = "malloc_device";

/// splitmix64 — the standard 64-bit finaliser; full avalanche, so consecutive
/// counters give independent-looking draws.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform in [0, 1) from a hashed 64-bit state (53 mantissa bits).
double u01(std::uint64_t x) {
  return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::alloc_fail: return "alloc-fail";
    case FaultKind::launch_fail: return "launch-fail";
    case FaultKind::sticky_fault: return "sticky-fault";
    case FaultKind::bit_flip: return "bit-flip";
    case FaultKind::hang: return "hang";
    case FaultKind::msg_drop: return "msg-drop";
    case FaultKind::msg_corrupt: return "msg-corrupt";
    case FaultKind::msg_delay: return "msg-delay";
    case FaultKind::device_loss: return "device-loss";
    case FaultKind::node_loss: return "node-loss";
    case FaultKind::serve_fault: return "serve-fault";
    case FaultKind::cache_fault: return "cache-fault";
    case FaultKind::heal: return "heal";
  }
  return "unknown";
}

void flip_bit(void* data, std::size_t bytes, std::uint64_t key) {
  if (data == nullptr || bytes == 0) return;
  const std::uint64_t pick = splitmix64(key);
  auto* p = static_cast<unsigned char*>(data) + pick % bytes;
  *p = static_cast<unsigned char>(*p ^ (1u << ((pick >> 32) % 8)));
}

Injector* Injector::current() { return g_current; }

void Injector::install(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(g_mu);
  slot().reset(new Injector(std::move(plan)));
  g_current = slot().get();
}

void Injector::uninstall() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_current = nullptr;
  slot().reset();
}

double Injector::draw(FaultKind kind, std::uint64_t counter) const {
  // Independent stream per fault kind: kind occupies the top byte of the
  // counter word, so streams never collide for < 2^56 draws.
  const auto k = static_cast<std::uint64_t>(kind);
  return u01(splitmix64(plan_.seed) ^ (k << 56) ^ counter);
}

void Injector::record(FaultKind kind, const std::string& site, std::uint64_t occurrence,
                      std::string detail) {
  ++counts_[static_cast<std::size_t>(kind)];
  events_.push_back(FaultEvent{kind, site, occurrence, std::move(detail)});
}

Injector::SiteState& Injector::site_state(const std::string& name) {
  for (auto& [n, st] : sites_) {
    if (n == name) return st;
  }
  sites_.emplace_back(name, SiteState{});
  return sites_.back().second;
}

const ScheduledFault* Injector::scheduled(std::initializer_list<FaultKind> kinds,
                                          const std::string& site,
                                          std::uint64_t occurrence) const {
  for (const ScheduledFault& s : plan_.schedule) {
    if (std::find(kinds.begin(), kinds.end(), s.kind) == kinds.end()) continue;
    if (!s.site_filter.empty() && site.find(s.site_filter) == std::string::npos) continue;
    if (occurrence >= s.index && occurrence < s.index + s.repeat) return &s;
  }
  return nullptr;
}

bool Injector::consult(FaultKind kind, double p, std::uint64_t& stream, const std::string& site,
                       const char* what) {
  std::lock_guard<std::mutex> lock(g_mu);
  const std::uint64_t occ = site_state(site).launches++;  // per-site consult occurrence
  const std::uint64_t chk = stream++;
  const bool hit = scheduled({kind}, site, occ) != nullptr || (p > 0.0 && draw(kind, chk) < p);
  if (hit) record(kind, site, occ, std::string(what) + " " + std::to_string(occ));
  return hit;
}

bool Injector::should_fail_alloc(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(g_mu);
  const std::uint64_t occ = alloc_counter_++;
  const bool fail = scheduled({FaultKind::alloc_fail}, kAllocSite, occ) != nullptr ||
                    (plan_.p_alloc_fail > 0.0 &&
                     draw(FaultKind::alloc_fail, occ) < plan_.p_alloc_fail);
  if (fail) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "allocation of %zu B refused", bytes);
    record(FaultKind::alloc_fail, kAllocSite, occ, buf);
  }
  return fail;
}

LaunchVerdict Injector::on_kernel_launch(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mu);
  SiteState& st = site_state(name);
  const std::uint64_t occ = st.launches++;
  const std::uint64_t attempt = launch_counter_++;

  LaunchVerdict v;
  // Explicit schedule wins over probability.
  const ScheduledFault* s =
      scheduled({FaultKind::launch_fail, FaultKind::sticky_fault, FaultKind::hang}, name, occ);
  if (s != nullptr) {
    v.faulted = true;
    v.kind = s->kind;
  }
  if (!v.faulted && plan_.p_launch_fail > 0.0 &&
      draw(FaultKind::launch_fail, attempt) < plan_.p_launch_fail) {
    v.faulted = true;
    v.kind = FaultKind::launch_fail;
  }
  if (!v.faulted && plan_.p_sticky > 0.0 &&
      draw(FaultKind::sticky_fault, attempt) < plan_.p_sticky) {
    v.faulted = true;
    v.kind = FaultKind::sticky_fault;
  }
  if (!v.faulted && plan_.p_hang > 0.0 && draw(FaultKind::hang, attempt) < plan_.p_hang) {
    v.faulted = true;
    v.kind = FaultKind::hang;
  }

  // Sticky faults are transient by definition: after `sticky_burst`
  // consecutive failures of one site the fault clears, so bounded retry
  // always gets past it.  (A *scheduled* sticky fault honours its own
  // `repeat` instead — it fired through the schedule above.)
  if (v.faulted && v.kind == FaultKind::sticky_fault && s == nullptr) {
    if (st.consecutive_sticky >= plan_.sticky_burst) {
      v.faulted = false;
      st.consecutive_sticky = 0;
    } else {
      ++st.consecutive_sticky;
    }
  } else if (!v.faulted) {
    st.consecutive_sticky = 0;
  }

  if (v.faulted) {
    if (v.kind == FaultKind::hang) v.charge_us = plan_.watchdog_timeout_us;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "launch attempt %llu",
                  static_cast<unsigned long long>(occ));
    record(v.kind, name, occ, buf);
  }
  return v;
}

LaunchVerdict Injector::on_kernel_complete(const std::string& name, double duration_us) {
  std::lock_guard<std::mutex> lock(g_mu);
  LaunchVerdict v;
  if (duration_us > plan_.watchdog_timeout_us) {
    v.faulted = true;
    v.kind = FaultKind::hang;
    v.charge_us = plan_.watchdog_timeout_us;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "simulated duration %.1f us exceeds watchdog %.1f us",
                  duration_us, plan_.watchdog_timeout_us);
    // on_kernel_launch already advanced the site's counter past this launch.
    record(FaultKind::hang, name, site_state(name).launches - 1, buf);
  }
  return v;
}

bool Injector::maybe_corrupt(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mu);
  const std::uint64_t occ = complete_counter_++;
  if (targets_.empty()) return false;

  const bool flip = scheduled({FaultKind::bit_flip}, name, occ) != nullptr ||
                    (plan_.p_bit_flip > 0.0 && draw(FaultKind::bit_flip, occ) < plan_.p_bit_flip);
  if (!flip) return false;

  // Pick region, byte and bit from the same deterministic stream.
  std::uint64_t total = 0;
  for (const MemRegion& r : targets_) total += r.bytes;
  if (total == 0) return false;
  const std::uint64_t pick =
      splitmix64(splitmix64(plan_.seed) ^ 0xb17f11bULL ^ occ);
  std::uint64_t byte_index = pick % total;
  const int bit = static_cast<int>((pick >> 32) % 8);
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const MemRegion& r = targets_[i];
    if (byte_index < r.bytes) {
      auto* p = reinterpret_cast<unsigned char*>(r.base + byte_index);
      *p = static_cast<unsigned char>(*p ^ (1u << bit));
      // The region is named by its registration index, not its heap
      // address, so a seeded fault log is byte-stable across runs.
      char buf[128];
      std::snprintf(buf, sizeof(buf), "flipped bit %d of byte +%llu in region %zu (%llu B)",
                    bit, static_cast<unsigned long long>(byte_index), i,
                    static_cast<unsigned long long>(r.bytes));
      record(FaultKind::bit_flip, name, occ, buf);
      return true;
    }
    byte_index -= r.bytes;
  }
  return false;
}

LinkVerdict Injector::on_message(const std::string& site, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(g_mu);
  SiteState& st = site_state(site);
  const std::uint64_t occ = st.launches++;  // per-site message occurrence
  const std::uint64_t msg = message_counter_++;

  LinkVerdict v;
  // Explicit schedule wins over probability; kinds compose (a message can
  // be scheduled both delayed and corrupted).
  v.dropped = scheduled({FaultKind::msg_drop}, site, occ) != nullptr;
  v.corrupted = scheduled({FaultKind::msg_corrupt}, site, occ) != nullptr;
  v.delayed = scheduled({FaultKind::msg_delay}, site, occ) != nullptr;
  if (!v.dropped && plan_.p_msg_drop > 0.0 &&
      draw(FaultKind::msg_drop, msg) < plan_.p_msg_drop) {
    v.dropped = true;
  }
  if (!v.corrupted && plan_.p_msg_corrupt > 0.0 &&
      draw(FaultKind::msg_corrupt, msg) < plan_.p_msg_corrupt) {
    v.corrupted = true;
  }
  if (!v.delayed && plan_.p_msg_delay > 0.0 &&
      draw(FaultKind::msg_delay, msg) < plan_.p_msg_delay) {
    v.delayed = true;
  }

  // A dropped message never arrives: nothing to corrupt or delay.
  if (v.dropped) {
    v.corrupted = false;
    v.delayed = false;
  }
  if (v.delayed) {
    v.extra_latency_us = plan_.delay_latency_us;
    v.bw_factor = plan_.delay_bw_factor;
  }
  if (v.corrupted) {
    v.corrupt_key = splitmix64(plan_.seed) ^ 0xc0442f7ULL ^ msg;
  }

  char buf[96];
  std::snprintf(buf, sizeof(buf), "message %llu (%llu B)",
                static_cast<unsigned long long>(occ),
                static_cast<unsigned long long>(bytes));
  if (v.dropped) record(FaultKind::msg_drop, site, occ, buf);
  if (v.corrupted) record(FaultKind::msg_corrupt, site, occ, buf);
  if (v.delayed) record(FaultKind::msg_delay, site, occ, buf);
  return v;
}

bool Injector::on_device_check(const std::string& site) {
  return consult(FaultKind::device_loss, plan_.p_device_loss, device_counter_, site,
                 "health check");
}

bool Injector::on_node_check(const std::string& site) {
  return consult(FaultKind::node_loss, plan_.p_node_loss, node_counter_, site, "health check");
}

bool Injector::on_serve_check(const std::string& site) {
  return consult(FaultKind::serve_fault, plan_.p_serve, serve_counter_, site,
                 "control-plane step");
}

bool Injector::on_cache_check(const std::string& site) {
  return consult(FaultKind::cache_fault, plan_.p_cache_fault, cache_counter_, site,
                 "cache I/O step");
}

bool Injector::on_heal_check(const std::string& site) {
  return consult(FaultKind::heal, plan_.p_heal, heal_counter_, site, "device return");
}

void Injector::set_corruption_targets(std::vector<MemRegion> regions) {
  std::lock_guard<std::mutex> lock(g_mu);
  targets_ = std::move(regions);
}

std::vector<FaultEvent> Injector::log() const {
  std::lock_guard<std::mutex> lock(g_mu);
  return events_;
}

std::vector<FaultEvent> Injector::log_since(std::size_t mark) const {
  std::lock_guard<std::mutex> lock(g_mu);
  if (mark >= events_.size()) return {};
  return {events_.begin() + static_cast<std::ptrdiff_t>(mark), events_.end()};
}

std::uint64_t Injector::injected_total() const {
  std::lock_guard<std::mutex> lock(g_mu);
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts_) n += c;
  return n;
}

std::uint64_t Injector::injected(FaultKind k) const {
  std::lock_guard<std::mutex> lock(g_mu);
  return counts_[static_cast<std::size_t>(k)];
}

void Injector::clear_log() {
  std::lock_guard<std::mutex> lock(g_mu);
  events_.clear();
  for (std::uint64_t& c : counts_) c = 0;
}

}  // namespace faultsim
