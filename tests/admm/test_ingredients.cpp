// The pluggable solver-ingredient seams (docs/SOLVER_INGREDIENTS.md):
// registry contracts, policy arithmetic, config binding, and the
// cross-validation of every non-default composition against the default
// reference loop.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "admm/admg.hpp"
#include "admm/ingredients.hpp"
#include "admm/options.hpp"
#include "helpers.hpp"
#include "math/sort_projection.hpp"
#include "opt/kkt.hpp"
#include "util/config.hpp"
#include "util/contract.hpp"

namespace ufc::admm {
namespace {

using ::ufc::testing::make_random_problem;
using ::ufc::testing::make_tiny_problem;

std::string violation_message(const std::function<void()>& action) {
  try {
    action();
  } catch (const ContractViolation& violation) {
    return violation.what();
  }
  ADD_FAILURE() << "expected a ContractViolation";
  return "";
}

// ---------------------------------------------------------------------------
// Registry contracts.

TEST(IngredientRegistry, UnknownPenaltyListsTheAlternatives) {
  const AdmgOptions options;
  const std::string message = violation_message(
      [&] { penalty_registry().create("warm-start", options); });
  EXPECT_NE(message.find("unknown penalty \"warm-start\""), std::string::npos)
      << message;
  EXPECT_NE(message.find("fixed"), std::string::npos) << message;
  EXPECT_NE(message.find("residual-balance"), std::string::npos) << message;
}

TEST(IngredientRegistry, UnknownAccelerationListsTheAlternatives) {
  const AdmgOptions options;
  const std::string message = violation_message(
      [&] { acceleration_registry().create("nesterov", options); });
  EXPECT_NE(message.find("unknown acceleration \"nesterov\""),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("anderson"), std::string::npos) << message;
  EXPECT_NE(message.find("none"), std::string::npos) << message;
  EXPECT_NE(message.find("over-relaxation"), std::string::npos) << message;
}

TEST(IngredientRegistry, DuplicateRegistrationThrows) {
  auto registry = penalty_registry();
  const std::string message = violation_message([&] {
    registry.add("fixed", [](const AdmgOptions&) {
      return std::unique_ptr<PenaltyPolicy>();
    });
  });
  EXPECT_NE(message.find("duplicate penalty registration"), std::string::npos)
      << message;
}

TEST(IngredientRegistry, NamesAreSortedAndComplete) {
  EXPECT_EQ(penalty_registry().names(),
            (std::vector<std::string>{"fixed", "residual-balance"}));
  EXPECT_EQ(acceleration_registry().names(),
            (std::vector<std::string>{"anderson", "none", "over-relaxation"}));
}

TEST(IngredientRegistry, CallersMayExtendTheirCopy) {
  auto registry = acceleration_registry();
  registry.add("custom", [](const AdmgOptions& options) {
    return acceleration_registry().create("none", options);
  });
  EXPECT_TRUE(registry.contains("custom"));
  // The builder registries are value-returning: the extension above must
  // not leak into a fresh copy.
  EXPECT_FALSE(acceleration_registry().contains("custom"));
}

TEST(IngredientRegistry, UnknownNameInOptionsFailsSolverConstruction) {
  AdmgOptions options;
  options.acceleration = "nesterov";
  EXPECT_THROW(AdmgSolver(make_tiny_problem(), options), ContractViolation);
}

// ---------------------------------------------------------------------------
// Policy arithmetic.

TEST(PenaltyPolicies, FixedNeverChangesRho) {
  const AdmgOptions options;
  auto fixed = penalty_registry().create("fixed", options);
  EXPECT_TRUE(fixed->fixed());
  EXPECT_DOUBLE_EQ(fixed->propose(3.5, 1e6, 0.0), 3.5);
}

TEST(PenaltyPolicies, ResidualBalanceFollowsTheDominantResidual) {
  AdmgOptions options;  // ratio 10, increase 2, decrease 2
  options.ingredients.balance_period = 1;  // adapt on every call
  auto policy = penalty_registry().create("residual-balance", options);
  EXPECT_FALSE(policy->fixed());
  EXPECT_DOUBLE_EQ(policy->propose(4.0, 1.0, 0.05), 8.0);  // primal dominates
  EXPECT_DOUBLE_EQ(policy->propose(4.0, 0.05, 1.0), 2.0);  // dual dominates
  EXPECT_DOUBLE_EQ(policy->propose(4.0, 1.0, 0.5), 4.0);   // balanced
}

TEST(AccelerationPolicies, OverRelaxationExtrapolatesExactly) {
  AdmgOptions options;
  options.ingredients.over_relaxation = 1.5;
  auto policy = acceleration_registry().create("over-relaxation", options);
  policy->begin(2);
  const std::vector<double> previous{1.0, 2.0};
  const std::vector<double> stepped{3.0, 0.0};
  std::vector<double> candidate(2, 0.0);
  ASSERT_TRUE(policy->propose(previous, stepped, candidate));
  EXPECT_DOUBLE_EQ(candidate[0], 4.0);   // 1 + 1.5 * (3 - 1)
  EXPECT_DOUBLE_EQ(candidate[1], -1.0);  // 2 + 1.5 * (0 - 2)
  EXPECT_TRUE(policy->accept(1.0, 0.9));
  EXPECT_FALSE(
      policy->accept(1.0, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(policy->fallbacks(), 1u);
}

TEST(AccelerationPolicies, AndersonSafeguardIsDeterministic) {
  // A colinear history makes the unregularized Gram matrix exactly
  // singular: the mixing weights divide 0/0, propose() declines to offer a
  // candidate and counts the fallback — an ordinary, countable event, not a
  // numerical accident.
  const AdmgOptions options;
  auto policy = acceleration_registry().create("anderson", options);
  policy->begin(2);
  std::vector<double> candidate(2, 0.0);
  // First call: no difference pair yet, no candidate.
  EXPECT_FALSE(policy->propose(std::vector<double>{0.0, 0.0},
                               std::vector<double>{1.0, 1.0}, candidate));
  // Second call: f is unchanged, so dF = 0 and the 1x1 Gram is singular.
  EXPECT_FALSE(policy->propose(std::vector<double>{1.0, 1.1},
                               std::vector<double>{2.0, 2.1}, candidate));
  EXPECT_EQ(policy->fallbacks(), 1u);
  // The degenerate history was purged, so the next call has no pair either.
  EXPECT_FALSE(policy->propose(std::vector<double>{2.0, 2.1},
                               std::vector<double>{2.5, 2.6}, candidate));
  EXPECT_EQ(policy->fallbacks(), 1u);
  // A non-finite measured residual is still rejected by the accept() gate.
  EXPECT_FALSE(policy->accept(1.0, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(policy->fallbacks(), 2u);
}

TEST(AccelerationPolicies, AndersonMixesAffineFixedPointInOneShot) {
  // For f(x) = T(x) - x affine with T(x) = 0.5 x + c, two iterates fully
  // determine the fixed point; Anderson with one pair must land on it.
  AdmgOptions options;
  options.ingredients.anderson_memory = 1;
  auto policy = acceleration_registry().create("anderson", options);
  policy->begin(1);
  // Fixed point of T(x) = 0.5 x + 1 is x* = 2.
  std::vector<double> candidate(1, 0.0);
  EXPECT_FALSE(policy->propose(std::vector<double>{0.0},
                               std::vector<double>{1.0}, candidate));
  ASSERT_TRUE(policy->propose(std::vector<double>{1.0},
                              std::vector<double>{1.5}, candidate));
  EXPECT_NEAR(candidate[0], 2.0, 1e-12);
  EXPECT_TRUE(policy->accept(1.0, 0.0));
}

TEST(AccelerationPolicies, ResetPurgesHistoryButKeepsFallbacks) {
  const AdmgOptions options;
  auto policy = acceleration_registry().create("anderson", options);
  policy->begin(1);
  std::vector<double> candidate(1, 0.0);
  EXPECT_FALSE(policy->propose(std::vector<double>{0.0},
                               std::vector<double>{1.0}, candidate));
  EXPECT_FALSE(policy->accept(1.0, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(policy->fallbacks(), 1u);
  policy->reset();
  // After reset the next propose has no pair again (fresh history)...
  EXPECT_FALSE(policy->propose(std::vector<double>{1.0},
                               std::vector<double>{1.5}, candidate));
  // ...and the fallback count survived.
  EXPECT_EQ(policy->fallbacks(), 1u);
}

// ---------------------------------------------------------------------------
// Config binding (the knob guards of validate_ingredients are mirrored in
// options_from_config, so a bad INI value surfaces as a config error).

TEST(IngredientConfig, CompositionRoundTripsThroughConfig) {
  const Config config = Config::parse(
      "[solver]\n"
      "penalty = residual-balance\n"
      "acceleration = anderson\n"
      "penalty_balance_ratio = 5\n"
      "penalty_increase = 3\n"
      "penalty_decrease = 1.5\n"
      "over_relaxation = 1.9\n"
      "anderson_memory = 3\n"
      "anderson_safeguard = 4\n");
  const AdmgOptions options = options_from_config(config);
  EXPECT_EQ(options.penalty, "residual-balance");
  EXPECT_EQ(options.acceleration, "anderson");
  EXPECT_DOUBLE_EQ(options.ingredients.balance_ratio, 5.0);
  EXPECT_DOUBLE_EQ(options.ingredients.increase, 3.0);
  EXPECT_DOUBLE_EQ(options.ingredients.decrease, 1.5);
  EXPECT_DOUBLE_EQ(options.ingredients.over_relaxation, 1.9);
  EXPECT_EQ(options.ingredients.anderson_memory, 3);
  EXPECT_DOUBLE_EQ(options.ingredients.anderson_safeguard, 4.0);
}

TEST(IngredientConfig, DefaultsStayOnTheBitIdenticalComposition) {
  const AdmgOptions options = options_from_config(Config{});
  EXPECT_EQ(options.penalty, "fixed");
  EXPECT_EQ(options.acceleration, "none");
}

TEST(IngredientConfig, RejectsOutOfDomainKnobs) {
  EXPECT_THROW(
      options_from_config(Config::parse("[solver]\nanderson_memory = 0\n")),
      ContractViolation);
  EXPECT_THROW(
      options_from_config(Config::parse("[solver]\nover_relaxation = 2.5\n")),
      ContractViolation);
  EXPECT_THROW(options_from_config(
                   Config::parse("[solver]\npenalty_balance_ratio = 1\n")),
               ContractViolation);
  EXPECT_THROW(
      options_from_config(Config::parse("[solver]\npenalty_increase = 0.5\n")),
      ContractViolation);
  EXPECT_THROW(
      options_from_config(Config::parse("[solver]\npenalty = bogus\n")),
      ContractViolation);
  EXPECT_THROW(
      options_from_config(Config::parse("[solver]\nacceleration = bogus\n")),
      ContractViolation);
}

// ---------------------------------------------------------------------------
// Cross-validation: every non-default composition must reach the reference
// optimum — same objective as the default loop, lambda rows passing the
// eq. (17) KKT check — at three problem sizes.

struct NamedComposition {
  const char* penalty;
  const char* acceleration;
};

constexpr NamedComposition kNonDefault[] = {
    {"residual-balance", "none"},
    {"fixed", "over-relaxation"},
    {"fixed", "anderson"},
    {"residual-balance", "anderson"},
};

/// Validates every lambda row of the solver's next prediction as a
/// projected-gradient fixed point of its sub-problem (eq. (17)); same
/// construction as the screening suite, with rho read *after* the solve so
/// adaptive-penalty runs check against the penalty they ended on.
void expect_lambda_rows_kkt_optimal(AdmgSolver& solver) {
  const Mat a_snap = solver.a();
  const Mat varphi_snap = solver.varphi();
  solver.step();
  const Mat& lambda = solver.lambda();
  const UfcProblem& p = solver.problem();
  const std::size_t n = p.num_datacenters();
  const double rho = solver.options().rho;
  for (std::size_t i = 0; i < p.num_front_ends(); ++i) {
    const double arrival = p.arrivals[i];
    if (arrival <= 0.0) continue;
    Vec row(n);
    for (std::size_t j = 0; j < n; ++j) row[j] = lambda(i, j);
    auto gradient = [&](const Vec& x) {
      double avg_latency = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        avg_latency += x[j] * p.latency_s(i, j);
      avg_latency /= arrival;
      const double uprime = p.utility->derivative(avg_latency);
      Vec g(n);
      for (std::size_t j = 0; j < n; ++j)
        g[j] = -p.latency_weight * uprime * p.latency_s(i, j) -
               varphi_snap(i, j) - rho * (a_snap(i, j) - x[j]);
      return g;
    };
    auto project = [&](const Vec& x) {
      return ::ufc::testing::sort_project_simplex(x, arrival);
    };
    const auto check = check_first_order_optimality(row, gradient, project,
                                                    1e-6, 1e-5, arrival);
    EXPECT_TRUE(check.passed) << "row " << i << " residual " << check.residual;
  }
}

TEST(IngredientCompositions, AgreeWithTheReferenceAtThreeSizes) {
  const UfcProblem problems[] = {
      make_tiny_problem(),
      make_random_problem(11, 6, 3),
      make_random_problem(12, 12, 4),
  };
  for (const UfcProblem& problem : problems) {
    const AdmgReport reference = solve_admg(problem, {});
    ASSERT_TRUE(reference.converged);
    double scale = 0.0;
    for (double a : problem.arrivals) scale += a;
    for (const NamedComposition& composition : kNonDefault) {
      AdmgOptions options;
      options.penalty = composition.penalty;
      options.acceleration = composition.acceleration;
      AdmgSolver solver(problem, options);
      const AdmgReport report = solver.solve();
      EXPECT_TRUE(report.converged)
          << composition.penalty << "+" << composition.acceleration;
      EXPECT_NEAR(report.breakdown.ufc, reference.breakdown.ufc, 0.02 * scale)
          << composition.penalty << "+" << composition.acceleration;
      expect_lambda_rows_kkt_optimal(solver);
    }
  }
}

TEST(IngredientCompositions, ResidualBalanceRecoversFromABadRho) {
  // With rho two orders below the well-conditioned value the primal
  // residual dominates and the balancer must ramp the penalty up.
  const UfcProblem problem = make_random_problem(21, 6, 3);
  AdmgOptions options;
  options.rho = 0.1;
  options.penalty = "residual-balance";
  const AdmgReport report = solve_admg(problem, options);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.final_penalty, options.rho);
}

TEST(IngredientCompositions, DefaultReportPinsTheFixedComposition) {
  const AdmgReport report = solve_admg(make_tiny_problem(), {});
  EXPECT_EQ(report.acceleration_fallbacks, 0u);
  EXPECT_DOUBLE_EQ(report.final_penalty, AdmgOptions{}.rho);
}

}  // namespace
}  // namespace ufc::admm
