// The optional Anderson acceleration (docs/SOLVER_INGREDIENTS.md): the
// mixer's arithmetic and safeguards, the [solver] acceleration key, and the
// cross-validation of accelerated solves against the plain reference loop.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "admm/admg.hpp"
#include "admm/anderson.hpp"
#include "admm/options.hpp"
#include "helpers.hpp"
#include "lambda_kkt.hpp"
#include "net/runtime.hpp"
#include "util/config.hpp"
#include "util/contract.hpp"

namespace ufc::admm {
namespace {

using ::ufc::testing::expect_lambda_rows_kkt_optimal;
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
// Mixer arithmetic.

TEST(AccelerationPolicies, AndersonSafeguardIsDeterministic) {
  // A colinear history makes the unregularized Gram matrix exactly
  // singular: the mixing weights divide 0/0, propose() declines to offer a
  // candidate and counts the fallback — an ordinary, countable event, not a
  // numerical accident.
  AndersonMixer mixer;
  mixer.begin(2);
  std::vector<double> candidate(2, 0.0);
  // First call: no difference pair yet, no candidate.
  EXPECT_FALSE(mixer.propose(std::vector<double>{0.0, 0.0},
                             std::vector<double>{1.0, 1.0}, candidate));
  // Second call: f is unchanged, so dF = 0 and the 1x1 Gram is singular.
  EXPECT_FALSE(mixer.propose(std::vector<double>{1.0, 1.1},
                             std::vector<double>{2.0, 2.1}, candidate));
  EXPECT_EQ(mixer.fallbacks(), 1u);
  // The degenerate history was purged, so the next call has no pair either.
  EXPECT_FALSE(mixer.propose(std::vector<double>{2.0, 2.1},
                             std::vector<double>{2.5, 2.6}, candidate));
  EXPECT_EQ(mixer.fallbacks(), 1u);
  // A non-finite measured residual is still rejected by the accept() gate.
  EXPECT_FALSE(mixer.accept(1.0, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(mixer.fallbacks(), 2u);
}

TEST(AccelerationPolicies, AndersonMixesAffineFixedPointInOneShot) {
  // For f(x) = T(x) - x affine with T(x) = 0.5 x + c, two iterates fully
  // determine the fixed point; the second call holds exactly one difference
  // pair, and mixing over it must land on the fixed point.
  AndersonMixer mixer;
  mixer.begin(1);
  // Fixed point of T(x) = 0.5 x + 1 is x* = 2.
  std::vector<double> candidate(1, 0.0);
  EXPECT_FALSE(mixer.propose(std::vector<double>{0.0},
                             std::vector<double>{1.0}, candidate));
  ASSERT_TRUE(mixer.propose(std::vector<double>{1.0},
                            std::vector<double>{1.5}, candidate));
  EXPECT_NEAR(candidate[0], 2.0, 1e-12);
  EXPECT_TRUE(mixer.accept(1.0, 0.0));
}

TEST(AccelerationPolicies, ResetPurgesHistoryButKeepsFallbacks) {
  AndersonMixer mixer;
  mixer.begin(1);
  std::vector<double> candidate(1, 0.0);
  EXPECT_FALSE(mixer.propose(std::vector<double>{0.0},
                             std::vector<double>{1.0}, candidate));
  EXPECT_FALSE(mixer.accept(1.0, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(mixer.fallbacks(), 1u);
  mixer.reset();
  // After reset the next propose has no pair again (fresh history)...
  EXPECT_FALSE(mixer.propose(std::vector<double>{1.0},
                             std::vector<double>{1.5}, candidate));
  // ...and the fallback count survived.
  EXPECT_EQ(mixer.fallbacks(), 1u);
}

// ---------------------------------------------------------------------------
// Config binding: `[solver] acceleration` is the one acceleration key, and it
// takes exactly the two Acceleration names.

TEST(IngredientConfig, CompositionRoundTripsThroughConfig) {
  const AdmgOptions anderson = options_from_config(
      Config::parse("[solver]\nacceleration = anderson\n"));
  EXPECT_EQ(anderson.acceleration, Acceleration::Anderson);
  const AdmgOptions none = options_from_config(
      Config::parse("[solver]\nacceleration = none\n"), anderson);
  EXPECT_EQ(none.acceleration, Acceleration::None);
}

TEST(IngredientConfig, DefaultsStayOnTheBitIdenticalComposition) {
  const AdmgOptions options = options_from_config(Config{});
  EXPECT_EQ(options.acceleration, Acceleration::None);
}

TEST(IngredientConfig, RejectsOutOfDomainKnobs) {
  for (const char* name : {"bogus", "fixed", "Anderson", ""}) {
    const std::string message = violation_message([&] {
      options_from_config(Config::parse(
          std::string("[solver]\nacceleration = ") + name + "\n"));
    });
    EXPECT_NE(message.find("none"), std::string::npos) << message;
    EXPECT_NE(message.find("anderson"), std::string::npos) << message;
  }
}

// ---------------------------------------------------------------------------
// Cross-validation: accelerated solves must reach the reference optimum —
// same objective as the plain loop, lambda rows passing the eq. (17) KKT
// check — at three problem sizes.

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
    AdmgOptions options;
    options.acceleration = Acceleration::Anderson;
    AdmgSolver solver(problem, options);
    const AdmgReport report = solver.solve();
    EXPECT_TRUE(report.converged);
    EXPECT_NEAR(report.breakdown.ufc, reference.breakdown.ufc, 0.02 * scale);
    expect_lambda_rows_kkt_optimal(solver);
  }
}

TEST(IngredientCompositions, MessagePassingRuntimeRejectsAnderson) {
  // The message-passing runtime has no flat-iterate seam: Anderson must be
  // refused up front, not silently replaced by the plain scheme.
  net::DistributedOptions dist;
  dist.admg.acceleration = Acceleration::Anderson;
  net::DistributedAdmgRuntime runtime(make_tiny_problem(), dist);
  EXPECT_THROW(runtime.run(), ContractViolation);
}

TEST(IngredientCompositions, DefaultReportPinsTheFixedComposition) {
  const AdmgReport report = solve_admg(make_tiny_problem(), {});
  EXPECT_EQ(report.acceleration_fallbacks, 0u);
}

}  // namespace
}  // namespace ufc::admm
