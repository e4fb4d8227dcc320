// breaker.hpp — per-resource circuit breakers on the simulated clock.
//
// A device (or node) that keeps failing must stop receiving work: every
// failed dispatch wastes its victims' deadline budget.  The breaker is the
// classic three-state machine, driven entirely by the service's simulated
// clock so chaos runs replay bit-for-bit:
//
//   closed ──kFailureThreshold consecutive failures──> open
//     ^                                                  │ kCooloffUs
//     │                                                  v   (grows per trip)
//     └──── probe success ─────────────────────── half-open
//                        │ probe failure
//                        └──> open (cooloff × kCooloffFactor, capped)
//
// The breaker never consults the injector itself — the service reports
// outcomes (solve results, `serve/probe` consults) into it.  Transitions are
// explicit events so the SloReport can enumerate every trip and recovery.
//
// Probe identity: probes carry a token (probe_started()) and only the
// matching on_probe_success/on_probe_failure resolves them.  A work success
// completing while half-open, or a probe outcome arriving after a concurrent
// failure reopened the breaker, can therefore never close it out of order.
#pragma once

#include <string>
#include <vector>

namespace milc::serve {

enum class BreakerState { closed, open, half_open };

[[nodiscard]] const char* to_string(BreakerState s);

/// Every breaker's coefficients, on the simulated clock.  The cooloff of
/// trip k is kCooloffUs * kCooloffFactor^(k-1), capped at kMaxCooloffUs
/// (reached on the sixth trip).
inline constexpr int kFailureThreshold = 3;  ///< consecutive failures that trip a closed breaker
inline constexpr double kCooloffUs = 2'000.0;  ///< open duration before the first half-open
inline constexpr double kCooloffFactor = 2.0;  ///< cooloff growth per successive trip
inline constexpr double kMaxCooloffUs = 60'000.0;

/// One state transition, timestamped on the simulated clock.
struct BreakerEvent {
  double at_us = 0.0;
  std::string resource;
  BreakerState from = BreakerState::closed;
  BreakerState to = BreakerState::closed;
  std::string why;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(std::string resource) : resource_(std::move(resource)) {}

  [[nodiscard]] const std::string& resource() const { return resource_; }
  [[nodiscard]] BreakerState state() const { return state_; }
  [[nodiscard]] double open_until() const { return open_until_; }
  [[nodiscard]] int trips() const { return trips_; }
  [[nodiscard]] const std::vector<BreakerEvent>& events() const { return events_; }

  /// Advance time: an open breaker whose cooloff elapsed becomes half-open.
  /// Call at every scheduling point before reading state().
  void poll(double now);

  /// May this resource take ordinary work now?  Only when closed — half-open
  /// capacity comes back exclusively through probes, so a recovering device
  /// never takes real traffic before it proved itself.
  [[nodiscard]] bool allow() const { return state_ == BreakerState::closed; }

  /// May a probe be sent now?  Half-open, with no probe already outstanding
  /// (the half-open race guard: concurrent dispatch cycles get one probe).
  [[nodiscard]] bool probe_allowed() const {
    return state_ == BreakerState::half_open && !probe_outstanding_;
  }
  /// Start a probe and get its identity token.  Only the outcome carrying
  /// this token can resolve the probe (on_probe_success / on_probe_failure);
  /// any transition out of half-open invalidates it, so a probe outcome that
  /// arrives after a concurrent failure reopened the breaker is ignored
  /// instead of closing it out of order.
  [[nodiscard]] int probe_started() {
    probe_outstanding_ = true;
    live_probe_token_ = ++next_probe_token_;
    return live_probe_token_;
  }

  /// Resolve the probe identified by `token`.  Stale tokens (the breaker
  /// left half-open since the probe departed, or a newer probe replaced it)
  /// are ignored.  Success closes the breaker; failure reopens it with a
  /// grown cooloff.
  void on_probe_success(double now, int token);
  void on_probe_failure(double now, const std::string& why, int token);

  /// Report an *ordinary work* outcome.  In closed state, failures count
  /// toward the trip threshold and any success resets the count.  In
  /// half-open state a work failure reopens the breaker (and invalidates any
  /// in-flight probe), while a work success is deliberately ignored — a
  /// solve that was dispatched before the trip proves nothing about the
  /// resource now, and must never close the breaker in place of the probe.
  void on_success(double now);
  void on_failure(double now, const std::string& why);

  /// Force probation (elastic rejoin): a resource returning to service is
  /// placed half-open regardless of current state, so its capacity comes
  /// back through a probe rather than straight into traffic.
  void begin_probation(double now, const std::string& why);

 private:
  void transition(double now, BreakerState to, const std::string& why);
  void reopen(double now, const std::string& why);

  std::string resource_;
  BreakerState state_ = BreakerState::closed;
  double open_until_ = 0.0;
  int consecutive_failures_ = 0;
  int trips_ = 0;
  bool probe_outstanding_ = false;
  int next_probe_token_ = 0;  ///< monotonic probe identity source
  int live_probe_token_ = 0;  ///< token of the outstanding probe (0: none)
  std::vector<BreakerEvent> events_;
};

}  // namespace milc::serve
