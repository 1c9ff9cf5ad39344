// The engine refactor contract: one iteration loop, three executors, zero
// arithmetic drift. The hexfloat baselines below pin the tiny 2x2 problem
// with default options; every EXPECT_EQ is a bit-for-bit comparison. They
// were captured from AdmgSolver before the AdmgEngine extraction and
// re-captured once when the lambda and a blocks became exact solves
// (admm/blocks.cpp): the iteration counts stayed, the values moved by the
// inexactness of the former iterative inner solver. They were re-captured
// three more times, when those blocks' root searches began starting at the
// previous iterate, when the lambda search began stepping by its support
// model and the a block dropped its search for a closed form, and when the
// lambda search began at the support model's root on the previous iterate's
// support, projecting on that support where its optimality conditions hold,
// and a capped a column took the simplex threshold of its kept entries: a
// search along another path stops at another point of the same
// 1e-15-wide bracket, and a threshold summed over the support differs from
// Condat's incremental one by ulps, so only the last bits moved.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "admm/async.hpp"
#include "admm/engine.hpp"
#include "admm/options.hpp"
#include "admm/strategy.hpp"
#include "helpers.hpp"
#include "net/runtime.hpp"
#include "obs/metrics_observer.hpp"
#include "sim/simulator.hpp"
#include "traces/scenario.hpp"
#include "util/config.hpp"
#include "util/contract.hpp"

namespace ufc::admm {
namespace {

using ::ufc::testing::make_tiny_problem;

// Per-step iterate samples, in the order
// {lambda(0,0), lambda(0,1), lambda(1,0), lambda(1,1), mu[0], mu[1],
//  nu[0], nu[1], a(0,0), a(1,1), varphi(0,1), phi[0], last_change}.
constexpr std::array<std::array<double, 13>, 6> kStepBaselines = {{
    {0x1.8af8af8af8af8p-1, 0x1.b6db6db6db6dcp-2, 0x1.38f3eb4a36138p-3,
     0x1.4b5c9ec70c14cp-1, 0x0p+0, 0x0p+0, 0x1.bc01aaaf913f6p-5,
     0x1.03adb4922963dp-4, 0x1.859eb897a691p-1, 0x1.4677100e0fa19p-1,
     -0x1.87bc99cee3ffp-4, 0x1.bdf3b88a1097p+0, 0x1.859eb897a691p-1},
    {0x1.d5d077a433f5p-1, 0x1.212bdd8464e2dp-2, 0x0p+0, 0x1.999999999999ap-1,
     0x1.bc01aaaf913f6p-5, 0x1.03adb4922963dp-4, 0x1.df02ebab64ep-13,
     0x1.9e3b8dcbb21p-12, 0x1.d074b4d709d5dp-1, 0x1.94b0ef8cfd8aep-1,
     -0x1.8838dedfd44d8p-3, 0x1.be3e90fee35ecp+1, 0x1.38e77dfbb7a54p-3},
    {0x1.0ae32f96e4484p+0, 0x1.42801ce27757ep-3, 0x0p+0, 0x1.999999999999ap-1,
     0x1.df02ebab64ep-13, 0x1.9e3b8dcbb21p-12, 0x1.e974811a46f8cp-8,
     -0x1.e7b4a5a5fa0ecp-8, 0x1.0817f02890347p+0, 0x1.94eb75de4ee65p-1,
     -0x1.21b73a11c0295p-2, 0x1.5389461f20ea7p+2, 0x1.fddb09c21a002p-4},
    {0x1.2601a7ecd137fp+0, 0x1.a63168cc3f68p-5, 0x0p+0, 0x1.999999999999ap-1,
     0x1.e974811a46f8cp-8, -0x1.e7b4a5a5fa0ecp-8, 0x1.9f0dd38c956bdp-8,
     -0x1.9d920c0837c2dp-8, 0x1.231d8143b7442p+0, 0x1.951d16c10834bp-1,
     -0x1.7b7172fd1c0c1p-2, 0x1.cc00e64faf9b1p+2, 0x1.b05a7e490488ap-4},
    {0x1.3333333333333p+0, 0x0p+0, 0x0p+0, 0x1.999999999999ap-1,
     0x1.9f0dd38c956bep-8, -0x1.9d920c0837c2dp-8, 0x1.93d9f6a975433p-9,
     -0x1.4f301cef54b7p-9, 0x1.3042eef5e6155p+0, 0x1.9531333da5edp-1,
     -0x1.7b7172fd1c0c1p-2, 0x1.2338ab7a490f2p+3, 0x1.a4adb645da26p-5},
    {0x1.3333333333333p+0, 0x0p+0, 0x0p+0, 0x1.999999999999ap-1,
     0x1.93d9f6a975433p-9, -0x1.4f301cef54b7p-9, 0x1.fp-57, -0x1.ep-58,
     0x1.3042eef5e6156p+0, 0x1.9531333da5ecfp-1, -0x1.7b7172fd1c0c1p-2,
     0x1.6070e3ccba50cp+3, 0x1.ebf3fb211aceap-9},
}};

TEST(EngineEquivalence, PinnedIterateBaselines) {
  AdmgSolver solver(make_tiny_problem(), {});
  for (std::size_t k = 0; k < kStepBaselines.size(); ++k) {
    solver.step();
    const auto& want = kStepBaselines[k];
    EXPECT_EQ(solver.lambda()(0, 0), want[0]) << "step " << k + 1;
    EXPECT_EQ(solver.lambda()(0, 1), want[1]) << "step " << k + 1;
    EXPECT_EQ(solver.lambda()(1, 0), want[2]) << "step " << k + 1;
    EXPECT_EQ(solver.lambda()(1, 1), want[3]) << "step " << k + 1;
    EXPECT_EQ(solver.mu()[0], want[4]) << "step " << k + 1;
    EXPECT_EQ(solver.mu()[1], want[5]) << "step " << k + 1;
    EXPECT_EQ(solver.nu()[0], want[6]) << "step " << k + 1;
    EXPECT_EQ(solver.nu()[1], want[7]) << "step " << k + 1;
    EXPECT_EQ(solver.a()(0, 0), want[8]) << "step " << k + 1;
    EXPECT_EQ(solver.a()(1, 1), want[9]) << "step " << k + 1;
    EXPECT_EQ(solver.varphi()(0, 1), want[10]) << "step " << k + 1;
    EXPECT_EQ(solver.phi()[0], want[11]) << "step " << k + 1;
    EXPECT_EQ(solver.last_change(), want[12]) << "step " << k + 1;
  }
}

TEST(EngineEquivalence, PinnedFullSolveReport) {
  AdmgSolver solver(make_tiny_problem(), {});
  const AdmgReport report = solver.solve();
  EXPECT_EQ(report.iterations, 62);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.balance_residual, 0x1.419496b990a3ep-20);
  EXPECT_EQ(report.copy_residual, 0x1.a42bebcp-27);
  EXPECT_EQ(report.solution.lambda(0, 0), 0x1.2cp+9);
  EXPECT_EQ(report.solution.lambda(1, 1), 0x1.9p+8);
  EXPECT_EQ(report.solution.mu[0], 0x0p+0);
  EXPECT_EQ(report.solution.mu[1], 0x1.26e8f1ce2ff73p-3);
  EXPECT_EQ(report.solution.nu[0], 0x1.89374bc6a7efap-3);
  EXPECT_EQ(report.solution.nu[1], 0x1.0e0d9bf92p-20);
  EXPECT_EQ(report.breakdown.ufc, -0x1.69eb964315788p+4);
  ASSERT_EQ(report.trace.balance_residual.size(), 62u);
  ASSERT_EQ(report.trace.copy_residual.size(), 62u);
  ASSERT_EQ(report.trace.objective.size(), 62u);
  EXPECT_EQ(report.trace.balance_residual.front(), 0x1.eb851eb851eb9p-4);
  EXPECT_EQ(report.trace.copy_residual.front(), 0x1.567dbcd487ap-7);
  EXPECT_EQ(report.trace.objective.front(), -0x1.b8d8138baa513p+4);
  EXPECT_EQ(report.trace.balance_residual.back(), report.balance_residual);
  EXPECT_EQ(report.trace.copy_residual.back(), report.copy_residual);
  EXPECT_EQ(report.trace.objective.back(), report.breakdown.ufc);
}

TEST(EngineEquivalence, FullParticipationExecutorBitwiseEqualToSynchronous) {
  const auto problem = make_tiny_problem();
  const AdmgOptions options;

  PartialParticipationExecutor executor(problem, options, 1.0, 99);
  AdmgEngine engine(options);
  const SolveCore partial = engine.solve(executor);
  const AdmgReport sync = solve_admg(problem, options);

  EXPECT_EQ(executor.skipped_updates(), 0u);
  EXPECT_EQ(partial.iterations, sync.iterations);
  EXPECT_EQ(partial.converged, sync.converged);
  EXPECT_EQ(max_abs_diff(partial.solution.lambda, sync.solution.lambda), 0.0);
  EXPECT_EQ(max_abs_diff(partial.solution.mu, sync.solution.mu), 0.0);
  EXPECT_EQ(max_abs_diff(partial.solution.nu, sync.solution.nu), 0.0);
  EXPECT_EQ(partial.balance_residual, sync.balance_residual);
  EXPECT_EQ(partial.copy_residual, sync.copy_residual);
  ASSERT_EQ(partial.trace.objective.size(), sync.trace.objective.size());
  for (std::size_t k = 0; k < sync.trace.objective.size(); ++k)
    EXPECT_EQ(partial.trace.objective[k], sync.trace.objective[k]);
}

TEST(EngineEquivalence, ZeroFaultBusExecutorMatchesInProcessEngine) {
  const auto problem = make_tiny_problem();
  AdmgOptions options;
  options.tolerance = 1e-6;
  options.max_iterations = 5000;

  const AdmgReport mono = solve_admg(problem, options);

  net::DistributedOptions dist;
  dist.admg = options;
  const net::DistributedReport bus =
      net::DistributedAdmgRuntime(problem, dist).run();

  EXPECT_TRUE(bus.converged);
  EXPECT_EQ(bus.iterations, mono.iterations);
  EXPECT_EQ(max_abs_diff(bus.solution.lambda, mono.solution.lambda), 0.0);
  EXPECT_EQ(max_abs_diff(bus.solution.mu, mono.solution.mu), 0.0);
  EXPECT_EQ(bus.balance_residual, mono.balance_residual);
  EXPECT_EQ(bus.copy_residual, mono.copy_residual);
  ASSERT_EQ(bus.trace.objective.size(), mono.trace.objective.size());
  for (std::size_t k = 0; k < mono.trace.objective.size(); ++k) {
    EXPECT_EQ(bus.trace.balance_residual[k], mono.trace.balance_residual[k]);
    EXPECT_EQ(bus.trace.copy_residual[k], mono.trace.copy_residual[k]);
    EXPECT_EQ(bus.trace.objective[k], mono.trace.objective[k]);
  }
}

TEST(EngineEquivalence, CheckpointRestoreMidSolveBitIdentical) {
  const auto problem = make_tiny_problem();
  const AdmgOptions options;

  // Uninterrupted reference solve.
  AdmgSolver reference(problem, options);
  const AdmgReport full = reference.solve();

  // Pause after 10 steps, serialize, restore into a fresh solver, finish
  // through the engine path.
  AdmgSolver paused(problem, options);
  for (int k = 0; k < 10; ++k) paused.step();
  const std::vector<std::byte> image = paused.checkpoint();

  AdmgSolver resumed(problem, options);
  resumed.restore(image);
  const AdmgReport rest = resumed.solve_warm();

  EXPECT_TRUE(rest.converged);
  EXPECT_EQ(10 + rest.iterations, full.iterations);
  EXPECT_EQ(max_abs_diff(resumed.lambda(), reference.lambda()), 0.0);
  EXPECT_EQ(max_abs_diff(resumed.a(), reference.a()), 0.0);
  EXPECT_EQ(max_abs_diff(resumed.mu(), reference.mu()), 0.0);
  EXPECT_EQ(max_abs_diff(resumed.nu(), reference.nu()), 0.0);
  EXPECT_EQ(max_abs_diff(rest.solution.lambda, full.solution.lambda), 0.0);
  EXPECT_EQ(rest.balance_residual, full.balance_residual);
  EXPECT_EQ(rest.copy_residual, full.copy_residual);
}

// ---------------------------------------------------------------------------
// Telemetry: the observer sees the same stream the trace records, and never
// perturbs the iterate.

class RecordingObserver : public IterationObserver {
 public:
  void on_iteration(const IterationSample& sample) override {
    samples.push_back(sample);
  }
  void on_solve_end(const SolveCore& /*core*/) override { ++solve_ends; }

  std::vector<IterationSample> samples;
  int solve_ends = 0;
};

TEST(EngineTelemetry, ObserverSeesEveryIterationAndKeepsBitIdentity) {
  const auto problem = make_tiny_problem();
  const AdmgReport plain = solve_admg(problem, {});

  RecordingObserver observer;
  AdmgOptions observed_options;
  observed_options.observer = &observer;
  const AdmgReport observed = solve_admg(problem, observed_options);

  EXPECT_EQ(observed.iterations, plain.iterations);
  EXPECT_EQ(max_abs_diff(observed.solution.lambda, plain.solution.lambda),
            0.0);
  ASSERT_EQ(observer.samples.size(),
            static_cast<std::size_t>(plain.iterations));
  EXPECT_EQ(observer.solve_ends, 1);
  for (std::size_t k = 0; k < observer.samples.size(); ++k) {
    EXPECT_EQ(observer.samples[k].iteration, static_cast<int>(k));
    EXPECT_EQ(observer.samples[k].balance_residual,
              plain.trace.balance_residual[k]);
    EXPECT_EQ(observer.samples[k].copy_residual, plain.trace.copy_residual[k]);
    EXPECT_EQ(observer.samples[k].objective, plain.trace.objective[k]);
    EXPECT_GE(observer.samples[k].wall_seconds, 0.0);
  }
}

// The observability layer's core contract: attaching the MetricsRegistry
// observer with phase profiling enabled must not perturb a single bit of the
// solve, serial or threaded. The expected values are the same pre-refactor
// hexfloat pins PinnedFullSolveReport checks without instrumentation.
TEST(EngineTelemetry, MetricsObserverWithPhaseProfilingKeepsBitIdentity) {
  const auto problem = make_tiny_problem();
  for (const int threads : {1, 4}) {
    obs::MetricsRegistry registry;
    obs::MetricsObserver observer(registry);
    AdmgOptions options;
    options.observer = &observer;
    options.profile_phases = true;
    options.threads = threads;

    const AdmgReport report = solve_admg(problem, options);
    EXPECT_EQ(report.iterations, 62) << "threads=" << threads;
    EXPECT_TRUE(report.converged) << "threads=" << threads;
    EXPECT_EQ(report.balance_residual, 0x1.419496b990a3ep-20)
        << "threads=" << threads;
    EXPECT_EQ(report.copy_residual, 0x1.a42bebcp-27) << "threads=" << threads;
    EXPECT_EQ(report.solution.lambda(0, 0), 0x1.2cp+9) << "threads=" << threads;
    EXPECT_EQ(report.solution.lambda(1, 1), 0x1.9p+8) << "threads=" << threads;
    EXPECT_EQ(report.solution.mu[0], 0x0p+0) << "threads=" << threads;
    EXPECT_EQ(report.solution.mu[1], 0x1.26e8f1ce2ff73p-3)
        << "threads=" << threads;
    EXPECT_EQ(report.solution.nu[0], 0x1.89374bc6a7efap-3)
        << "threads=" << threads;
    EXPECT_EQ(report.breakdown.ufc, -0x1.69eb964315788p+4)
        << "threads=" << threads;

    // The registry really did record the run.
    const obs::Counter* iterations = registry.find_counter("solver.iterations");
    ASSERT_NE(iterations, nullptr);
    EXPECT_EQ(iterations->value(), 62u);
    const obs::Histogram* lambda_seconds =
        registry.find_histogram("solver.phase.lambda_pass_seconds");
    ASSERT_NE(lambda_seconds, nullptr);
    EXPECT_EQ(lambda_seconds->count(), 62u);
  }
}

// Phase samples only appear when profiling is requested, and the split is
// coherent: every component is non-negative. (wall_seconds times the step
// only; the gate runs after it, so the two are not ordered.)
TEST(EngineTelemetry, PhaseProfilesAreCoherentWhenEnabled) {
  const auto problem = make_tiny_problem();

  RecordingObserver unprofiled;
  AdmgOptions plain_options;
  plain_options.observer = &unprofiled;
  (void)solve_admg(problem, plain_options);
  ASSERT_FALSE(unprofiled.samples.empty());
  for (const auto& sample : unprofiled.samples)
    EXPECT_FALSE(sample.has_phases);

  RecordingObserver profiled;
  AdmgOptions options;
  options.observer = &profiled;
  options.profile_phases = true;
  (void)solve_admg(problem, options);
  ASSERT_FALSE(profiled.samples.empty());
  for (const auto& sample : profiled.samples) {
    ASSERT_TRUE(sample.has_phases);
    EXPECT_GE(sample.phases.lambda_pass_seconds, 0.0);
    EXPECT_GE(sample.phases.prediction_seconds, 0.0);
    EXPECT_GE(sample.phases.correction_seconds, 0.0);
    EXPECT_GE(sample.phases.gate_seconds, 0.0);
    EXPECT_GE(sample.wall_seconds, 0.0);
  }
}

// The block solvers' work counts on paper hour 64 (Hybrid, the simulator's
// options): equal for every thread count, and pinned so a change to where
// the lambda search starts, which support its probes try, or how the a
// block finishes a capped column shows up here.
TEST(EngineTelemetry, BlockProbeCountsArePinned) {
  const UfcProblem problem = traces::Scenario::generate({}).problem_at(64);
  for (const int threads : {1, 4}) {
    obs::MetricsRegistry registry;
    obs::MetricsObserver observer(registry);
    AdmgOptions options = sim::SimulatorOptions{}.admg;
    options.observer = &observer;
    options.profile_phases = true;
    options.threads = threads;

    const AdmgReport report =
        solve_strategy(problem, Strategy::Hybrid, options);
    EXPECT_EQ(report.iterations, 109) << "threads=" << threads;
    const auto count = [&](const char* name) {
      const obs::Counter* counter = registry.find_counter(name);
      return counter != nullptr ? counter->value() : 0u;
    };
    // Over 1,090 lambda solves (10 front-ends) and 436 a solves (4
    // datacenters): the lambda block's probes, the Condat projections among
    // them (the rest projected on the support the probe expected), and the
    // a block's passes.
    EXPECT_EQ(count("solver.block.lambda_probes"), 1188u)
        << "threads=" << threads;
    EXPECT_EQ(count("solver.block.lambda_projections"), 48u)
        << "threads=" << threads;
    EXPECT_EQ(count("solver.block.a_passes"), 537u)
        << "threads=" << threads;
  }
}

// One MetricsObserver sees every driver through the same seam, so its
// counters aggregate across solves of different executors.
TEST(EngineTelemetry, ObserverAggregatesAcrossSolvesAndDrivers) {
  const auto problem = make_tiny_problem();
  obs::MetricsRegistry registry;
  obs::MetricsObserver observer(registry);
  AdmgOptions options;
  options.observer = &observer;

  const AdmgReport first = solve_admg(problem, options);
  AsyncOptions async;
  async.admg = options;
  async.participation = 0.7;
  const AsyncReport second = solve_async_admg(problem, async);

  const auto count = [&](const char* name) {
    const obs::Counter* counter = registry.find_counter(name);
    return counter != nullptr ? counter->value() : 0u;
  };
  EXPECT_EQ(count("solver.solves"), 2u);
  EXPECT_EQ(count("solver.converged_solves"), 2u);
  const auto iterations =
      static_cast<std::uint64_t>(first.iterations + second.iterations);
  EXPECT_EQ(count("solver.iterations"), iterations);
  const obs::Histogram* seconds =
      registry.find_histogram("solver.iteration_seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_EQ(seconds->count(), iterations);
  EXPECT_GE(seconds->sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Config binding.

TEST(EngineOptions, OptionsFromConfigParsesSolverSection) {
  const Config config = Config::parse(
      "[solver]\n"
      "rho = 2.5\n"
      "epsilon = 0.9\n"
      "tolerance = 1e-5\n"
      "max_iterations = 123\n"
      "gaussian_back_substitution = false\n"
      "threads = 2\n");

  const AdmgOptions options = options_from_config(config);
  EXPECT_DOUBLE_EQ(options.rho, 2.5);
  EXPECT_DOUBLE_EQ(options.epsilon, 0.9);
  EXPECT_DOUBLE_EQ(options.tolerance, 1e-5);
  EXPECT_EQ(options.max_iterations, 123);
  EXPECT_FALSE(options.gaussian_back_substitution);
  EXPECT_EQ(options.threads, 2);
}

TEST(EngineOptions, OptionsFromConfigKeepsDefaults) {
  const Config config;
  AdmgOptions defaults;
  defaults.tolerance = 3e-3;
  const AdmgOptions options = options_from_config(config, defaults);
  EXPECT_DOUBLE_EQ(options.tolerance, 3e-3);
  EXPECT_EQ(options.max_iterations, defaults.max_iterations);
}

TEST(EngineOptions, OptionsFromConfigRejectsInvalidValues) {
  const Config bad_rho = Config::parse("[solver]\nrho = -1\n");
  EXPECT_THROW(options_from_config(bad_rho), ContractViolation);

  const Config bad_iters = Config::parse("[solver]\nmax_iterations = 0\n");
  EXPECT_THROW(options_from_config(bad_iters), ContractViolation);

  // A key the parser does not read must not be silently ignored: typos and
  // keys of deleted options throw, naming the key and the recognized ones.
  for (const char* key :
       {"max_iteration", "tolerence", "projection", "penalty",
        "penalty_balance_ratio", "penalty_increase", "penalty_decrease",
        "penalty_period", "anderson_memory", "anderson_safeguard",
        "screening", "screening_full_pass_every"}) {
    const Config config =
        Config::parse(std::string("[solver]\n") + key + " = 1\n");
    try {
      options_from_config(config);
      ADD_FAILURE() << "accepted solver." << key;
    } catch (const ContractViolation& violation) {
      const std::string message = violation.what();
      EXPECT_NE(message.find(std::string("\"") + key + "\""),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("max_iterations"), std::string::npos) << message;
      EXPECT_NE(message.find("acceleration"), std::string::npos) << message;
    }
  }
}

}  // namespace
}  // namespace ufc::admm
