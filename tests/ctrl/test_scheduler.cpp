// MultiTenantScheduler: fair multiplexing of independent warm-started
// tenants over one iteration pool and one thread pool.
//
// The load-bearing property is thread-count bit-identity: grants are decided
// serially, tenant solves touch disjoint state, and accounting replays in
// grant order, so --threads is purely a wall-clock knob. The composition
// test closes the loop with the solver layer: one tenant under the
// scheduler IS a plain apply_update + solve_budgeted loop whose budget is
// the pool, because budgeted solves chain bit-identically
// (AdmgBudget.ResumeBitIdenticalToOneLongSolve).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "admm/admg.hpp"
#include "ctrl/scheduler.hpp"
#include "ctrl/stream.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace ufc::ctrl {
namespace {

using ::ufc::testing::make_tiny_problem;

std::unique_ptr<SyntheticTickSource> tiny_stream(std::uint64_t seed,
                                                 int ticks) {
  SyntheticTickSource::Options options;
  options.seed = seed;
  options.ticks = ticks;
  options.workload_amplitude = 0.1;
  options.price_amplitude = 0.2;
  return std::make_unique<SyntheticTickSource>(make_tiny_problem(), options);
}

SchedulerOptions small_options(int threads) {
  SchedulerOptions options;
  options.iteration_pool_per_tick = 60;
  options.quantum = 10;
  options.threads = threads;
  options.admg.record_trace = false;
  return options;
}

// The scheduler owns a thread pool and is therefore not movable; tests
// construct it in place and load the standard three tenants through this.
void load_three_tenants(MultiTenantScheduler& scheduler, int ticks) {
  scheduler.add_tenant("alpha", tiny_stream(1, ticks));
  scheduler.add_tenant("beta", tiny_stream(2, ticks));
  scheduler.add_tenant("gamma", tiny_stream(3, ticks));
}

TEST(MultiTenant, RejectsBadConfigurationsAndNames) {
  SchedulerOptions bad = small_options(1);
  bad.iteration_pool_per_tick = 0;
  EXPECT_THROW(MultiTenantScheduler{bad}, ContractViolation);
  bad = small_options(1);
  bad.quantum = 0;
  EXPECT_THROW(MultiTenantScheduler{bad}, ContractViolation);

  MultiTenantScheduler scheduler(small_options(1));
  EXPECT_THROW(scheduler.add_tenant("", tiny_stream(1, 2)),
               ContractViolation);
  EXPECT_THROW(scheduler.add_tenant("alpha", nullptr), ContractViolation);
  scheduler.add_tenant("alpha", tiny_stream(1, 2));
  EXPECT_THROW(scheduler.add_tenant("alpha", tiny_stream(2, 2)),
               ContractViolation);
  EXPECT_EQ(scheduler.tenant_count(), 1u);
  EXPECT_EQ(scheduler.tenant_name(0), "alpha");
  // Ticking with no tenants at all is a contract violation, not a no-op.
  MultiTenantScheduler empty(small_options(1));
  EXPECT_THROW(empty.run_tick(), ContractViolation);
}

TEST(MultiTenant, ThreadCountIsBitIdentical) {
  constexpr int kTicks = 5;
  MultiTenantScheduler serial(small_options(1));
  MultiTenantScheduler threaded(small_options(4));
  load_three_tenants(serial, kTicks);
  load_three_tenants(threaded, kTicks);

  EXPECT_EQ(serial.run(kTicks), kTicks);
  EXPECT_EQ(threaded.run(kTicks), kTicks);

  for (std::size_t t = 0; t < serial.tenant_count(); ++t) {
    EXPECT_EQ(serial.tenant_solver(t).checkpoint(),
              threaded.tenant_solver(t).checkpoint())
        << "tenant " << serial.tenant_name(t);
  }

  obs::MetricsRegistry serial_metrics;
  obs::MetricsRegistry threaded_metrics;
  serial.record_metrics(serial_metrics);
  threaded.record_metrics(threaded_metrics);
  EXPECT_EQ(serial_metrics.to_json().dump(),
            threaded_metrics.to_json().dump());
}

TEST(MultiTenant, SingleTenantEqualsBudgetedSolveLoop) {
  constexpr int kTicks = 4;
  constexpr int kPool = 40;

  SchedulerOptions options = small_options(1);
  options.iteration_pool_per_tick = kPool;
  options.quantum = 10;  // Four grants per tick chain into one 40-budget.
  // A tolerance below reach keeps the tenant from converging mid-tick, so
  // it consumes every grant and the chaining identity applies exactly.
  options.admg.tolerance = 1e-12;
  options.admg.warn_on_unconverged = false;
  MultiTenantScheduler scheduler(options);
  scheduler.add_tenant("solo", tiny_stream(9, kTicks));
  EXPECT_EQ(scheduler.run(kTicks), kTicks);

  auto stream = tiny_stream(9, kTicks);
  admm::AdmgSolver solver(stream->base_problem(), options.admg);
  while (const auto update = stream->next()) {
    solver.apply_update(*update);
    solver.solve_budgeted(kPool);
  }

  EXPECT_EQ(scheduler.tenant_solver(0).checkpoint(), solver.checkpoint());
}

TEST(MultiTenant, BudgetExhaustedTicksAreCounted) {
  // A tolerance below reach: every tick spends its whole pool (two grants
  // of 2) without converging, so each lands in the budget-exhausted column.
  constexpr int kTicks = 3;
  SchedulerOptions options = small_options(1);
  options.iteration_pool_per_tick = 4;
  options.quantum = 2;
  options.admg.tolerance = 1e-12;
  options.admg.warn_on_unconverged = false;
  MultiTenantScheduler scheduler(options);
  scheduler.add_tenant("alpha", tiny_stream(1, kTicks));
  EXPECT_EQ(scheduler.run(kTicks), kTicks);

  obs::MetricsRegistry registry;
  scheduler.record_metrics(registry);
  const auto count = [&](const std::string& name) {
    const obs::Counter* counter = registry.find_counter(name);
    return counter != nullptr ? counter->value() : 0u;
  };
  EXPECT_EQ(count("ctrl.tenant.alpha.ticks"), 3u);
  EXPECT_EQ(count("ctrl.tenant.alpha.iterations"), 12u);
  EXPECT_EQ(count("ctrl.tenant.alpha.budget_exhausted"), 3u);
  EXPECT_EQ(count("ctrl.tenant.alpha.converged_ticks"), 0u);
  EXPECT_EQ(count("ctrl.tenant.alpha.iterations_saved"), 0u);
  const obs::Histogram* histogram =
      registry.find_histogram("ctrl.tenant.alpha.tick_iterations");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->count(), 3u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 12.0);
}

TEST(MultiTenant, EarlyConvergenceHandsUnusedGrantBack) {
  // A generous pool lets every tenant converge each tick; the reclaimed
  // iterations surface as iterations_saved and the consumed totals stay
  // well under the pool.
  constexpr int kTicks = 3;
  SchedulerOptions options = small_options(1);
  options.iteration_pool_per_tick = 2000;
  options.quantum = 500;
  MultiTenantScheduler scheduler(options);
  scheduler.add_tenant("alpha", tiny_stream(4, kTicks));
  scheduler.add_tenant("beta", tiny_stream(5, kTicks));
  EXPECT_EQ(scheduler.run(kTicks), kTicks);

  obs::MetricsRegistry registry;
  scheduler.record_metrics(registry);
  const auto count = [&](const std::string& name) {
    const obs::Counter* counter = registry.find_counter(name);
    return counter != nullptr ? counter->value() : 0u;
  };
  EXPECT_EQ(count("ctrl.ticks"), static_cast<std::uint64_t>(kTicks));
  for (const std::string name : {"alpha", "beta"}) {
    const std::string prefix = "ctrl.tenant." + name;
    EXPECT_EQ(count(prefix + ".ticks"), static_cast<std::uint64_t>(kTicks));
    EXPECT_EQ(count(prefix + ".converged_ticks"),
              static_cast<std::uint64_t>(kTicks));
    EXPECT_EQ(count(prefix + ".budget_exhausted"), 0u);
    EXPECT_GT(count(prefix + ".iterations_saved"), 0u);
    EXPECT_GT(count(prefix + ".iterations"), 0u);
    const obs::Histogram* histogram =
        registry.find_histogram(prefix + ".tick_iterations");
    ASSERT_NE(histogram, nullptr);
    EXPECT_EQ(histogram->count(), static_cast<std::uint64_t>(kTicks));
  }
  for (std::size_t t = 0; t < scheduler.tenant_count(); ++t)
    EXPECT_TRUE(scheduler.tenant_solver(t).is_converged());
}

TEST(MultiTenant, PoolConsumptionNeverExceedsTheBudget) {
  constexpr int kTicks = 4;
  MultiTenantScheduler scheduler(small_options(1));
  load_three_tenants(scheduler, kTicks);
  EXPECT_EQ(scheduler.run(kTicks), kTicks);

  obs::MetricsRegistry registry;
  scheduler.record_metrics(registry);
  std::uint64_t total_iterations = 0;
  for (const std::string name : {"alpha", "beta", "gamma"}) {
    const obs::Counter* counter =
        registry.find_counter("ctrl.tenant." + name + ".iterations");
    ASSERT_NE(counter, nullptr);
    total_iterations += counter->value();
  }
  EXPECT_LE(total_iterations, static_cast<std::uint64_t>(
                                  kTicks * small_options(1)
                                               .iteration_pool_per_tick));
}

TEST(MultiTenant, ExhaustedStreamsEndTheRun) {
  MultiTenantScheduler scheduler(small_options(1));
  scheduler.add_tenant("short", tiny_stream(6, 2));
  scheduler.add_tenant("long", tiny_stream(7, 4));

  // run() stops once every stream is dry: 4 ticks happen (the longer
  // stream), not the requested 10.
  EXPECT_EQ(scheduler.run(10), 4);
  EXPECT_EQ(scheduler.ticks(), 4);
  EXPECT_FALSE(scheduler.run_tick());

  obs::MetricsRegistry registry;
  scheduler.record_metrics(registry);
  const obs::Counter* short_ticks =
      registry.find_counter("ctrl.tenant.short.ticks");
  const obs::Counter* long_ticks =
      registry.find_counter("ctrl.tenant.long.ticks");
  ASSERT_NE(short_ticks, nullptr);
  ASSERT_NE(long_ticks, nullptr);
  EXPECT_EQ(short_ticks->value(), 2u);
  EXPECT_EQ(long_ticks->value(), 4u);
}

}  // namespace
}  // namespace ufc::ctrl
