#include "serve/breaker.hpp"

#include <algorithm>
#include <cmath>

namespace milc::serve {

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::closed: return "closed";
    case BreakerState::open: return "open";
    case BreakerState::half_open: return "half-open";
  }
  return "unknown";
}

void CircuitBreaker::transition(double now, BreakerState to, const std::string& why) {
  events_.push_back({now, resource_, state_, to, why});
  state_ = to;
  // Every transition starts a fresh probe cycle: an in-flight probe's
  // outcome, however late it lands, must not resolve against the new one.
  half_open_successes_ = 0;
  probe_outstanding_ = false;
  live_probe_token_ = 0;
}

void CircuitBreaker::poll(double now) {
  if (state_ == BreakerState::open && now >= open_until_) {
    transition(now, BreakerState::half_open, "cooloff elapsed");
  }
}

void CircuitBreaker::reopen(double now, const std::string& why) {
  ++trips_;
  const double cooloff = std::min(
      cfg_.max_cooloff_us,
      cfg_.cooloff_us * std::pow(cfg_.cooloff_factor, static_cast<double>(trips_ - 1)));
  open_until_ = now + cooloff;
  transition(now, BreakerState::open, why);
}

void CircuitBreaker::on_probe_success(double now, int token) {
  if (state_ != BreakerState::half_open || token == 0 || token != live_probe_token_) {
    return;  // stale probe: the breaker moved on since this probe departed
  }
  probe_outstanding_ = false;
  live_probe_token_ = 0;
  if (++half_open_successes_ >= cfg_.successes_to_close) {
    transition(now, BreakerState::closed, "probe recovered");
    consecutive_failures_ = 0;
  }
}

void CircuitBreaker::on_probe_failure(double now, const std::string& why, int token) {
  if (state_ != BreakerState::half_open || token == 0 || token != live_probe_token_) {
    return;  // stale probe
  }
  reopen(now, "probe failed: " + why);
}

void CircuitBreaker::on_success(double now) {
  if (state_ == BreakerState::half_open) {
    // A work success while half-open is a solve dispatched before the trip;
    // it proves nothing about the resource now and never closes the breaker
    // in place of the probe (the half-open ordering race).
    return;
  }
  consecutive_failures_ = 0;
}

void CircuitBreaker::on_failure(double now, const std::string& why) {
  if (state_ == BreakerState::half_open) {
    reopen(now, "failure while half-open: " + why);
    return;
  }
  if (state_ == BreakerState::open) return;  // already routed around
  if (++consecutive_failures_ >= cfg_.failure_threshold) {
    reopen(now, std::to_string(consecutive_failures_) + " consecutive failures: " + why);
    consecutive_failures_ = 0;
  }
}

void CircuitBreaker::begin_probation(double now, const std::string& why) {
  if (state_ == BreakerState::half_open) return;
  open_until_ = now;
  transition(now, BreakerState::half_open, why);
  consecutive_failures_ = 0;
}

}  // namespace milc::serve
