// queue.hpp — SYCL-like queue with in-order / out-of-order submission
// semantics on a simulated timeline.
//
// The paper's §IV-D6 finding — the SYCLomatic-optimized version wins 1.5–6.7%
// because it creates an in-order queue while plain SYCL defaults to
// out-of-order — is reproduced here as a per-submission launch overhead:
// out-of-order queues pay dependency-graph management on every submit even
// when no overlap is possible (cf. SYCL-Bench 2020 [12]).
//
// Error model (SYCL 2020 §4.13): device-side faults discovered after
// submission are *asynchronous*.  When faultsim injects a launch failure,
// sticky fault or hang, the queue buffers a minisycl::exception as an
// std::exception_ptr; `wait_and_throw()` delivers the batch to the queue's
// async_handler, or rethrows the first error when no handler was installed.
// Queue order does not change draining semantics (errors are delivered in
// submission order either way) — it only changes the launch overhead, as in
// real SYCL.  With no injector installed the error path costs one pointer
// check and the timeline is bit-for-bit the fault-free one.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "faultsim/faultsim.hpp"
#include "gpusim/calibration.hpp"
#include "gpusim/machine.hpp"
#include "minisycl/event.hpp"
#include "minisycl/exception.hpp"
#include "minisycl/executor.hpp"

namespace minisycl {

enum class QueueOrder { out_of_order, in_order };
enum class ExecMode { functional, profiled };

class queue {
 public:
  explicit queue(ExecMode mode = ExecMode::functional,
                 QueueOrder order = QueueOrder::out_of_order,
                 gpusim::MachineModel machine = gpusim::a100(), async_handler handler = {})
      : mode_(mode), order_(order), machine_(machine), handler_(std::move(handler)) {}

  ~queue() {
    if (!teardown_hook_) return;
    // Hooks must not throw out of a destructor; a failing diagnostic hook is
    // swallowed (the report vector it appends to is the real channel).
    auto hook = std::move(teardown_hook_);
    try {
      hook(*this);
    } catch (...) {
    }
  }
  queue(const queue&) = default;
  queue& operator=(const queue&) = default;

  [[nodiscard]] ExecMode mode() const { return mode_; }
  [[nodiscard]] QueueOrder order() const { return order_; }
  [[nodiscard]] const gpusim::MachineModel& machine() const { return machine_; }

  void set_async_handler(async_handler handler) { handler_ = std::move(handler); }
  [[nodiscard]] bool has_async_handler() const { return static_cast<bool>(handler_); }

  /// Observer called after every *successful* submission with the kernel
  /// name and its stats record (faulted launches have no side effects and
  /// are not reported).  dsan uses this as its kernel-launch event source;
  /// with no hook installed submit() pays one branch.
  void set_kernel_hook(std::function<void(const std::string&, const gpusim::KernelStats&)> hook) {
    kernel_hook_ = std::move(hook);
  }

  /// Hook run once from the queue's destructor — the ksan USM
  /// leak-at-teardown diagnostic attaches here.  The hook must outlive-safe
  /// capture its output sink; exceptions it throws are swallowed.
  void set_teardown_hook(std::function<void(queue&)> hook) {
    teardown_hook_ = std::move(hook);
  }

  /// Per-submission launch overhead in microseconds on the simulated
  /// timeline (the in-order advantage).
  [[nodiscard]] double launch_overhead_us() const {
    return order_ == QueueOrder::in_order ? gpusim::kCalibration.launch_overhead_in_order_us
                                          : gpusim::kCalibration.launch_overhead_out_of_order_us;
  }

  /// Submit one kernel.  In functional mode the stats carry zero timing; in
  /// profiled mode they carry the full Table-I record.  Either way the
  /// kernel's side effects (the computed fields) are real.  Injected faults
  /// suppress the kernel body (a failed launch has no side effects), mark
  /// `stats.fault`, and buffer an asynchronous error for wait_and_throw().
  template <PhasedKernel Kernel>
  gpusim::KernelStats submit(const LaunchSpec& spec, const Kernel& kernel,
                             std::string name = {}) {
    if (name.empty()) name = spec.traits.name;

    faultsim::Injector* inj = faultsim::Injector::current();
    if (inj != nullptr) {
      const faultsim::LaunchVerdict v = inj->on_kernel_launch(name);
      if (v.faulted) return faulted_stats(spec, std::move(name), v);
    }

    gpusim::KernelStats stats;
    if (mode_ == ExecMode::profiled) {
      stats = execute_profiled(machine_, spec, kernel, std::move(name));
    } else {
      execute_functional(spec, kernel);
      stats.name = std::move(name);
      stats.launch.global_size = spec.global_size;
      stats.launch.local_size = spec.local_size;
      stats.launch.shared_bytes_per_group = spec.shared_bytes;
      stats.launch.num_phases = spec.num_phases;
    }

    if (inj != nullptr) {
      // Watchdog on the simulated timeline: a kernel whose computed duration
      // exceeds the plan's timeout is killed as hung (its partial output is
      // suspect; callers must retry).
      const faultsim::LaunchVerdict w = inj->on_kernel_complete(stats.name, stats.duration_us);
      if (w.faulted) {
        stats.fault = faultsim::to_string(w.kind);
        buffer_async_error(w.kind, stats.name);
        sim_time_us_ += w.charge_us + launch_overhead_us();
        ++submissions_;
        return stats;
      }
      // ECC-like silent corruption of registered regions: no error raised.
      inj->maybe_corrupt(stats.name);
    }

    sim_time_us_ += stats.duration_us + launch_overhead_us();
    ++submissions_;
    if (kernel_hook_) kernel_hook_(stats.name, stats);
    return stats;
  }

  /// Submit with explicit dependencies and receive a profiling event.  The
  /// device is serialised (each kernel saturates it), so the event start is
  /// the later of "device free" and "all dependencies finished", plus the
  /// queue's launch overhead; in-order queues additionally depend on their
  /// previous submission.
  template <PhasedKernel Kernel>
  event submit_with_event(const LaunchSpec& spec, const Kernel& kernel,
                          std::span<const event> deps = {}, std::string name = {}) {
    const gpusim::KernelStats stats = submit(spec, kernel, std::move(name));

    event ev;
    ev.submit_us = next_submit_us_;
    double ready = device_free_us_;
    for (const event& d : deps) ready = std::max(ready, d.end_us);
    if (order_ == QueueOrder::in_order) ready = std::max(ready, last_event_end_us_);
    ev.start_us = std::max(ev.submit_us, ready) + launch_overhead_us();
    ev.end_us = ev.start_us + stats.duration_us;

    device_free_us_ = ev.end_us;
    last_event_end_us_ = ev.end_us;
    next_submit_us_ = ev.submit_us;  // host submits back-to-back by default
    return ev;
  }

  /// Advance the host-side submission clock (models host work between
  /// submissions).
  void host_advance_us(double us) { next_submit_us_ += us; }

  /// Block until the queue drains.  Submission in this simulator is
  /// synchronous, so this only marks the timeline.  Per SYCL, wait() does
  /// NOT process asynchronous errors — use wait_and_throw().
  void wait() {}

  /// sycl::queue::wait_and_throw(): drain the asynchronous error list.  With
  /// an async_handler installed the whole batch is delivered to it (in
  /// submission order, both queue orders); without one the first captured
  /// error is rethrown and the rest are discarded with it.
  void wait_and_throw() {
    wait();
    if (async_errors_.empty()) return;
    exception_list list(std::move(async_errors_));
    async_errors_.clear();
    if (handler_) {
      handler_(std::move(list));
      return;
    }
    std::rethrow_exception(*list.begin());
  }

  [[nodiscard]] std::size_t pending_async_errors() const { return async_errors_.size(); }

  [[nodiscard]] double sim_time_us() const { return sim_time_us_; }
  [[nodiscard]] std::int64_t submissions() const { return submissions_; }
  void reset_timeline() {
    sim_time_us_ = 0.0;
    submissions_ = 0;
  }

 private:
  /// Stats record for a launch the injector refused: no side effects, zero
  /// duration, the fault named; the matching async error is buffered and the
  /// timeline charged (watchdog timeout for hangs, overhead otherwise).
  gpusim::KernelStats faulted_stats(const LaunchSpec& spec, std::string name,
                                    const faultsim::LaunchVerdict& v) {
    gpusim::KernelStats stats;
    stats.name = std::move(name);
    stats.launch.global_size = spec.global_size;
    stats.launch.local_size = spec.local_size;
    stats.launch.shared_bytes_per_group = spec.shared_bytes;
    stats.launch.num_phases = spec.num_phases;
    stats.fault = faultsim::to_string(v.kind);
    buffer_async_error(v.kind, stats.name);
    sim_time_us_ += v.charge_us + launch_overhead_us();
    ++submissions_;
    return stats;
  }

  void buffer_async_error(faultsim::FaultKind kind, const std::string& name) {
    errc code = errc::kernel_launch;
    std::string msg;
    switch (kind) {
      case faultsim::FaultKind::launch_fail:
        code = errc::kernel_launch;
        msg = "faultsim: injected kernel-launch failure for '" + name + "'";
        break;
      case faultsim::FaultKind::sticky_fault:
        code = errc::device_fault;
        msg = "faultsim: transient device fault during '" + name + "' (clears on retry)";
        break;
      case faultsim::FaultKind::hang:
        code = errc::watchdog_timeout;
        msg = "faultsim: '" + name + "' exceeded the simulated watchdog";
        break;
      default:
        msg = "faultsim: fault during '" + name + "'";
        break;
    }
    async_errors_.push_back(std::make_exception_ptr(exception(code, msg)));
  }

  ExecMode mode_;
  QueueOrder order_;
  gpusim::MachineModel machine_;
  async_handler handler_;
  std::function<void(const std::string&, const gpusim::KernelStats&)> kernel_hook_;
  std::function<void(queue&)> teardown_hook_;
  std::vector<std::exception_ptr> async_errors_;
  double sim_time_us_ = 0.0;
  std::int64_t submissions_ = 0;
  double next_submit_us_ = 0.0;
  double device_free_us_ = 0.0;
  double last_event_end_us_ = 0.0;
};

}  // namespace minisycl
