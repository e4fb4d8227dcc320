// Simulated-timeline events: profiling info, dependency ordering, and the
// in-order/out-of-order launch-overhead difference at event granularity.
#include <gtest/gtest.h>

#include <array>

#include "minisycl/queue.hpp"

namespace minisycl {
namespace {

struct TinyKernel {
  static constexpr int kPhases = 1;
  double* out;
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    const double v = lane.load(&out[lane.global_id()]);
    lane.flops(2);
    lane.store(&out[lane.global_id()], v + 1.0);
  }
};

LaunchSpec tiny_spec() { return LaunchSpec{1024, 128, 0, 1, {}}; }

TEST(QueueEvents, ProfilingFieldsAreOrdered) {
  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::profiled, QueueOrder::in_order);
  const event ev = q.submit_with_event(tiny_spec(), TinyKernel{buf.data()});
  EXPECT_GE(ev.start_us, ev.submit_us);
  EXPECT_GT(ev.end_us, ev.start_us);
  EXPECT_NEAR(ev.queue_latency_us(), q.launch_overhead_us(), 1e-9);
  EXPECT_GT(ev.duration_us(), 0.0);
}

TEST(QueueEvents, InOrderSerialisesSubmissions) {
  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::profiled, QueueOrder::in_order);
  const event a = q.submit_with_event(tiny_spec(), TinyKernel{buf.data()});
  const event b = q.submit_with_event(tiny_spec(), TinyKernel{buf.data()});
  EXPECT_GE(b.start_us, a.end_us);
}

TEST(QueueEvents, DependenciesPushTheStart) {
  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::profiled, QueueOrder::out_of_order);
  const event a = q.submit_with_event(tiny_spec(), TinyKernel{buf.data()});
  const std::array<event, 1> deps = {a};
  const event b = q.submit_with_event(tiny_spec(), TinyKernel{buf.data()}, deps);
  EXPECT_GE(b.start_us, a.end_us + q.launch_overhead_us() - 1e-9);
}

TEST(QueueEvents, OutOfOrderPaysMoreLatencyPerSubmission) {
  std::vector<double> buf(1024, 0.0);
  queue in_q(ExecMode::profiled, QueueOrder::in_order);
  queue out_q(ExecMode::profiled, QueueOrder::out_of_order);
  const event a = in_q.submit_with_event(tiny_spec(), TinyKernel{buf.data()});
  const event b = out_q.submit_with_event(tiny_spec(), TinyKernel{buf.data()});
  EXPECT_LT(a.queue_latency_us(), b.queue_latency_us());
  // Kernel duration itself is identical.
  EXPECT_NEAR(a.duration_us(), b.duration_us(), 1e-9);
}

TEST(QueueEvents, HostAdvanceDelaysSubmission) {
  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::profiled, QueueOrder::in_order);
  const event a = q.submit_with_event(tiny_spec(), TinyKernel{buf.data()});
  q.host_advance_us(10'000.0);
  const event b = q.submit_with_event(tiny_spec(), TinyKernel{buf.data()});
  EXPECT_GE(b.submit_us, a.submit_us + 10'000.0 - 1e-9);
  // Device was idle by then: latency is just the launch overhead.
  EXPECT_NEAR(b.queue_latency_us(), q.launch_overhead_us(), 1e-9);
}

// ----------------------------------------------------------------------
// asynchronous error surface (SYCL 2020 §4.13): wait_and_throw(), handlers
// ----------------------------------------------------------------------

/// Install a plan that rejects the first `n` launches of any kernel.
faultsim::FaultPlan reject_first(std::uint64_t n) {
  faultsim::FaultPlan plan;
  plan.schedule.push_back(
      faultsim::ScheduledFault{faultsim::FaultKind::launch_fail, 0, n, {}});
  return plan;
}

TEST(QueueAsyncErrors, WaitAndThrowIsANoopWithoutErrors) {
  for (const QueueOrder order : {QueueOrder::in_order, QueueOrder::out_of_order}) {
    std::vector<double> buf(1024, 0.0);
    queue q(ExecMode::profiled, order);
    (void)q.submit(tiny_spec(), TinyKernel{buf.data()});
    EXPECT_NO_THROW(q.wait_and_throw());
  }
}

TEST(QueueAsyncErrors, RethrowsWithoutHandlerOnBothQueueOrders) {
  for (const QueueOrder order : {QueueOrder::in_order, QueueOrder::out_of_order}) {
    faultsim::ScopedFaultInjection fi(reject_first(1));
    std::vector<double> buf(1024, 0.0);
    queue q(ExecMode::profiled, order);
    (void)q.submit(tiny_spec(), TinyKernel{buf.data()}, "k");
    EXPECT_EQ(q.pending_async_errors(), 1u);
    EXPECT_THROW(q.wait_and_throw(), exception);
    // The list was drained: a second call is clean.
    EXPECT_EQ(q.pending_async_errors(), 0u);
    EXPECT_NO_THROW(q.wait_and_throw());
  }
}

TEST(QueueAsyncErrors, HandlerSeesSubmissionOrderOnBothQueueOrders) {
  for (const QueueOrder order : {QueueOrder::in_order, QueueOrder::out_of_order}) {
    faultsim::ScopedFaultInjection fi(reject_first(2));
    std::vector<double> buf(1024, 0.0);
    std::vector<std::string> seen;
    queue q(ExecMode::profiled, order, gpusim::a100(),
            [&seen](exception_list errors) {
              for (const std::exception_ptr& ep : errors) {
                try {
                  std::rethrow_exception(ep);
                } catch (const exception& e) {
                  seen.emplace_back(e.what());
                }
              }
            });
    ASSERT_TRUE(q.has_async_handler());
    (void)q.submit(tiny_spec(), TinyKernel{buf.data()}, "alpha");
    (void)q.submit(tiny_spec(), TinyKernel{buf.data()}, "beta");
    EXPECT_NO_THROW(q.wait_and_throw());
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_NE(seen[0].find("alpha"), std::string::npos);
    EXPECT_NE(seen[1].find("beta"), std::string::npos);
  }
}

TEST(QueueAsyncErrors, HandlerCanBeInstalledAfterConstruction) {
  faultsim::ScopedFaultInjection fi(reject_first(1));
  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::profiled, QueueOrder::in_order);
  EXPECT_FALSE(q.has_async_handler());
  (void)q.submit(tiny_spec(), TinyKernel{buf.data()});
  std::size_t delivered = 0;
  q.set_async_handler([&delivered](exception_list errors) { delivered = errors.size(); });
  EXPECT_NO_THROW(q.wait_and_throw());
  EXPECT_EQ(delivered, 1u);
}

TEST(QueueEvents, HundredIterationLoopMatchesPaperMethodology) {
  // The paper times 100 kernel iterations back-to-back; the event timeline
  // must equal 100 * (kernel + launch overhead).
  std::vector<double> buf(1024, 0.0);
  queue q(ExecMode::profiled, QueueOrder::in_order);
  event last;
  double kernel_us = 0.0;
  for (int it = 0; it < 100; ++it) {
    last = q.submit_with_event(tiny_spec(), TinyKernel{buf.data()});
    kernel_us = last.duration_us();
  }
  EXPECT_NEAR(last.end_us, 100.0 * (kernel_us + q.launch_overhead_us()), 1e-6);
  EXPECT_DOUBLE_EQ(buf[7], 100.0);  // and the work really happened
}

}  // namespace
}  // namespace minisycl
