// The three end-to-end workloads of the repo benchmark.
//
// Stable-API rule: a workload drives the library only through
// sim::SolveSession, admm::solve_admg and ctrl::MultiTenantScheduler, on
// default options with at most tolerance, threads, max_iterations and
// record_trace changed (plus the observer hook in traced passes). Solver-internal knobs are never named here, so they can
// be deleted without touching the benchmark.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/scheduler.hpp"
#include "harness.hpp"
#include "model/problem.hpp"
#include "traces/scenario.hpp"

namespace perfbench {

/// What one timed pass did, unit by unit (a unit is a slot solve, a
/// solve or a scheduler tick).
struct PassStats {
  std::vector<double> unit_seconds;
  std::int64_t iterations = 0;
  /// Solves the pass ran: one per unit, one per tenant-tick for
  /// tenant_ticks.
  std::int64_t solves = 0;
  /// Solves that ended other than Converged.
  std::int64_t unconverged = 0;
  /// Units whose plan is unusable: watchdog-tripped or non-finite.
  std::int64_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Name of the span wrapped around each unit's public call.
  virtual const char* unit_span() const = 0;
  /// Builds fresh state for one pass: scenario generation, problem build,
  /// tenant registration, solver construction. `observer` (traced passes
  /// only, else null) is attached to every solve of the pass.
  virtual void setup(ufc::admm::IterationObserver* observer) = 0;
  /// The timed pass. `spans` is null on untraced passes.
  virtual PassStats run_pass(SpanRecorder* spans, SpanObserver* observer) = 0;
  /// Fail-closed output checks on the last pass's plans (untimed).
  virtual void check(Result& result) = 0;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// The paper's §IV scenario (M = 10, N = 4, one week; generated with
/// `base_seed`, 42 being the paper configuration) with its front-ends and
/// datacenters relabeled by `seed`. Scenarios generated afresh per seed
/// differ in difficulty by up to 1.6x in iterations, which would swamp any
/// code change; a relabeling changes every input vector's order but keeps
/// the problem, and ADM-G needs exactly the same iterations on it.
ufc::traces::Scenario paper_scenario(std::uint64_t seed,
                                     std::uint64_t base_seed = 42);

/// The tenant_ticks scheduler: 16 tenants, a pool of 400 iterations per
/// tick dealt in quanta of 50, `threads` scheduler threads, tenant options
/// SimulatorOptions{}.admg (+ `observer`); tenant k replays
/// paper_scenario(seed, 42 + k).
std::unique_ptr<ufc::ctrl::MultiTenantScheduler> make_tenant_scheduler(
    std::uint64_t seed, int threads,
    ufc::admm::IterationObserver* observer = nullptr);

/// Lifetime totals over every tenant of a tenant_ticks scheduler, from its
/// record_metrics counters.
struct TenantTotals {
  std::int64_t ticks = 0;  ///< Tenant-ticks.
  std::int64_t iterations = 0;
  std::int64_t iterations_saved = 0;
  std::int64_t budget_exhausted = 0;
};
TenantTotals tenant_totals(const ufc::ctrl::MultiTenantScheduler& scheduler);

/// The 256 x 32 instance of scale_solve: bench_parallel_scaling's
/// random_problem, relabeled by `seed` like paper_scenario.
ufc::UfcProblem scale_instance(std::uint64_t seed);

/// Upper bounds of the fail-closed checks. The routing optimality residual
/// is relative to the largest arrival; at the workloads' 3e-3 tolerance it
/// stays below 2e-3. The oracle gap is relative to |UFC|; the subgradient
/// oracle itself is only accurate to ~0.2%, so the bound is the 1% the
/// repo's own ADM-G-vs-oracle test uses.
inline constexpr double kOptimalityResidualBound = 1e-2;
inline constexpr double kOracleGapBound = 1e-2;

}  // namespace perfbench
