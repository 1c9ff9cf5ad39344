// Per-block sub-problem correctness. The lambda and a blocks are solved
// exactly, so each minimizer must be a first-order fixed point to within
// 1e-9 and must match brute force on 2-3 variables, for every utility shape
// and for the degenerate inputs (zero arrival or capacity, tied latencies,
// one datacenter or front-end, a capacity that binds with zero multiplier).
// The fixed-point checks project with the test-side sort oracle
// (tests/math/sort_projection.hpp), so a block solver and its check never
// share projection code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "admm/blocks.hpp"
#include "math/sort_projection.hpp"
#include "model/emission.hpp"
#include "model/utility.hpp"
#include "opt/kkt.hpp"
#include "opt/scalar.hpp"
#include "util/rng.hpp"

namespace ufc::admm {
namespace {

using ::ufc::testing::sort_project_capped_simplex;
using ::ufc::testing::sort_project_simplex;

/// Largest first-order residual an exact block solve may leave.
constexpr double kExactResidual = 1e-9;

/// Solves from `warm` (the solver's previous iterate), or from zero.
Vec solve_lambda(const LambdaBlockInputs& in, const Vec& warm = {}) {
  const std::size_t n = in.latency_row.size();
  const Vec start = warm.empty() ? Vec(n, 0.0) : warm;
  Vec out(n);
  BlockWorkspace ws;
  solve_lambda_block_into(in, start.span(), out.span(), ws);
  return out;
}

Vec solve_a(const ABlockInputs& in, const Vec& warm = {}) {
  const std::size_t m = in.varphi_col.size();
  const Vec start = warm.empty() ? Vec(m, 0.0) : warm;
  Vec out(m);
  BlockWorkspace ws;
  solve_a_block_into(in, start.span(), out.span(), ws);
  return out;
}

/// A warm start only picks where the root search begins, so every start
/// must reach the zero start's minimizer to within the root tolerance.
constexpr double kSameMinimizer = 1e-12;

/// The four starts a block solve is checked from: zero, the exact
/// minimizer, a random feasible point of total `total`, and the whole total
/// on entry `far` (the far end of the search bracket).
std::vector<std::pair<std::string, Vec>> warm_starts(const Vec& solution,
                                                     double total,
                                                     std::size_t far,
                                                     Rng& rng) {
  const std::size_t size = solution.size();
  Vec random(size), extreme(size, 0.0);
  double drawn = 0.0;
  for (auto& v : random) {
    v = rng.uniform(0.0, 1.0);
    drawn += v;
  }
  for (auto& v : random) v *= total / drawn;
  extreme[far] = total;
  return {{"zero", Vec(size, 0.0)},
          {"exact", solution},
          {"random", random},
          {"extreme", extreme}};
}

/// Warm rows shaped by the minimizer's support S, which the first probe
/// tries: a strict superset of S (a quarter of the total moved to the first
/// entry off S), a strict subset (the total on S's first entry) and a row
/// disjoint from S (the total on the first entry off S). A shape that S
/// does not allow (S is everything, or a single entry) is left out.
std::vector<std::pair<std::string, Vec>> support_starts(const Vec& solution,
                                                        double total) {
  const std::size_t size = solution.size();
  std::size_t inside = size, outside = size, count = 0;
  for (std::size_t j = 0; j < size; ++j) {
    if (solution[j] > 0.0) {
      ++count;
      if (inside == size) inside = j;
    } else if (outside == size) {
      outside = j;
    }
  }
  std::vector<std::pair<std::string, Vec>> starts;
  if (outside < size) {
    Vec superset = solution;
    for (auto& v : superset) v *= 0.75;
    superset[outside] = 0.25 * total;
    starts.emplace_back("superset", superset);
    Vec disjoint(size, 0.0);
    disjoint[outside] = total;
    starts.emplace_back("disjoint", disjoint);
  }
  if (count >= 2) {
    Vec subset(size, 0.0);
    subset[inside] = total;
    starts.emplace_back("subset", subset);
  }
  return starts;
}

double lambda_block_objective(const LambdaBlockInputs& in, const Vec& lambda) {
  double weighted = 0.0;
  for (std::size_t j = 0; j < lambda.size(); ++j)
    weighted += lambda[j] * in.latency_row[j];
  const double avg_latency = weighted / in.arrival;
  double obj = -in.latency_weight * in.arrival * in.utility->value(avg_latency);
  for (std::size_t j = 0; j < lambda.size(); ++j)
    obj += -in.varphi_row[j] * lambda[j] +
           0.5 * in.rho * (in.a_row[j] - lambda[j]) * (in.a_row[j] - lambda[j]);
  return obj;
}

/// max |x - P(x - g(x) / rho)| for the lambda sub-problem (eq. (17)).
double lambda_block_residual(const LambdaBlockInputs& in, const Vec& x) {
  auto gradient = [&](const Vec& lambda) {
    double weighted = 0.0;
    for (std::size_t j = 0; j < lambda.size(); ++j)
      weighted += lambda[j] * in.latency_row[j];
    const double uprime = in.utility->derivative(weighted / in.arrival);
    Vec g(lambda.size());
    for (std::size_t j = 0; j < lambda.size(); ++j)
      g[j] = -in.latency_weight * uprime * in.latency_row[j] -
             in.varphi_row[j] - in.rho * (in.a_row[j] - lambda[j]);
    return g;
  };
  auto project = [&](const Vec& v) {
    return sort_project_simplex(v, in.arrival);
  };
  return check_first_order_optimality(x, gradient, project, 1.0 / in.rho,
                                      kExactResidual)
      .residual;
}

/// The three utility shapes of model/utility.hpp.
std::vector<std::shared_ptr<const UtilityFunction>> every_utility() {
  return {std::make_shared<QuadraticUtility>(),
          std::make_shared<LinearUtility>(),
          std::make_shared<ExponentialUtility>(0.02)};
}

void expect_in_simplex(const Vec& x, double total) {
  double sum = 0.0;
  for (const double v : x) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  // The projected point's entries reach (w / rho) |u'| L, far above the
  // total, so the threshold carries rounding of that size.
  EXPECT_NEAR(sum, total, 1e-10 * std::max(1.0, total));
}

TEST(LambdaBlock, TwoDatacenterBruteForce) {
  QuadraticUtility utility;
  // Named storage: the input spans are non-owning views.
  const Vec latency{0.010, 0.030}, a_row{0.4, 0.6}, varphi_row{0.02, -0.05};
  LambdaBlockInputs in;
  in.arrival = 1.0;
  in.latency_row = latency.span();
  in.a_row = a_row.span();
  in.varphi_row = varphi_row.span();
  in.rho = 1.0;
  in.latency_weight = 10.0;
  in.utility = &utility;

  const Vec solution = solve_lambda(in);
  EXPECT_NEAR(solution[0] + solution[1], 1.0, 1e-12);

  double best = 1e100, best_x = 0.0;
  for (int k = 0; k <= 100000; ++k) {
    const double x = k / 100000.0;
    const double v = lambda_block_objective(in, Vec{x, 1.0 - x});
    if (v < best) {
      best = v;
      best_x = x;
    }
  }
  EXPECT_NEAR(solution[0], best_x, 1e-4);
  EXPECT_LE(lambda_block_objective(in, solution), best + 1e-10);
}

TEST(LambdaBlock, ThreeDatacenterBruteForceForEveryUtility) {
  // A grid over the 2-simplex never beats the exact solve.
  const Vec latency{0.004, 0.021, 0.038}, a_row{0.5, 0.2, 0.3},
      varphi_row{-0.01, 0.03, 0.02};
  for (const auto& utility : every_utility()) {
    LambdaBlockInputs in;
    in.arrival = 1.5;
    in.latency_row = latency.span();
    in.a_row = a_row.span();
    in.varphi_row = varphi_row.span();
    in.rho = 2.0;
    in.latency_weight = 40.0;
    in.utility = utility.get();
    const Vec solution = solve_lambda(in);
    expect_in_simplex(solution, in.arrival);
    const double f_star = lambda_block_objective(in, solution);
    constexpr int kSteps = 300;
    for (int p = 0; p <= kSteps; ++p) {
      for (int q = 0; p + q <= kSteps; ++q) {
        const double x0 = in.arrival * p / kSteps;
        const double x1 = in.arrival * q / kSteps;
        const Vec x{x0, x1, in.arrival - x0 - x1};
        ASSERT_GE(lambda_block_objective(in, x), f_star - 1e-10)
            << utility->name() << " beaten at " << p << "," << q;
      }
    }
  }
}

TEST(LambdaBlock, ZeroArrivalReturnsZeros) {
  QuadraticUtility utility;
  const Vec latency{0.01, 0.02}, a_row{0.0, 0.0}, varphi_row{0.0, 0.0};
  LambdaBlockInputs in;
  in.arrival = 0.0;
  in.latency_row = latency.span();
  in.a_row = a_row.span();
  in.varphi_row = varphi_row.span();
  in.utility = &utility;
  const Vec solution = solve_lambda(in);
  EXPECT_DOUBLE_EQ(solution[0], 0.0);
  EXPECT_DOUBLE_EQ(solution[1], 0.0);
}

class LambdaBlockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LambdaBlockProperty, SatisfiesFirstOrderConditions) {
  // One random front-end, solved for every utility shape as drawn and in
  // three degenerate variants: tied latencies, a single datacenter, and no
  // arrivals.
  Rng rng(GetParam());
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  Vec latency(n), a_row(n), varphi_row(n);
  for (std::size_t j = 0; j < n; ++j) {
    latency[j] = rng.uniform(0.002, 0.05);
    a_row[j] = rng.uniform(0.0, 1.0);
    varphi_row[j] = rng.uniform(-0.5, 0.5);
  }
  const Vec tied(n, latency[0]);
  const double arrival = rng.uniform(0.2, 3.0);
  const double rho = rng.uniform(0.1, 20.0);
  // Normalized workload units put w in the thousands (ADM-G's sigma).
  const double weight = rng.uniform(1.0, 1e3);

  for (const auto& utility : every_utility()) {
    for (const char* variant : {"drawn", "tied", "single", "idle"}) {
      const std::string shape = variant;
      const std::size_t width = shape == "single" ? 1 : n;
      LambdaBlockInputs in;
      in.arrival = shape == "idle" ? 0.0 : arrival;
      in.latency_row =
          (shape == "tied" ? tied.span() : latency.span()).first(width);
      in.a_row = a_row.span().first(width);
      in.varphi_row = varphi_row.span().first(width);
      in.rho = rho;
      in.latency_weight = weight;
      in.utility = utility.get();

      const Vec solution = solve_lambda(in);
      expect_in_simplex(solution, in.arrival);
      if (in.arrival <= 0.0) continue;
      EXPECT_LE(lambda_block_residual(in, solution), kExactResidual)
          << utility->name() << " " << shape;
      // Every warm start, the worst-latency datacenter's and those shaped by
      // the minimizer's support included, reaches the same minimizer.
      const auto row = in.latency_row;
      const auto worst = static_cast<std::size_t>(
          std::max_element(row.begin(), row.end()) - row.begin());
      Rng warm_rng(GetParam() + 100);
      auto starts = warm_starts(solution, in.arrival, worst, warm_rng);
      for (auto& shaped : support_starts(solution, in.arrival))
        starts.push_back(std::move(shaped));
      for (const auto& [start, warm] : starts) {
        const Vec warm_solution = solve_lambda(in, warm);
        EXPECT_LE(lambda_block_residual(in, warm_solution), kExactResidual)
            << utility->name() << " " << shape << " from " << start;
        EXPECT_LE(max_abs_diff(warm_solution, solution),
                  kSameMinimizer * std::max(1.0, in.arrival))
            << utility->name() << " " << shape << " from " << start;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LambdaBlockProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(LambdaBlock, SupportChangesBetweenStartAndRoot) {
  // The model step is exact only while the projection keeps its support.
  // From a start with all traffic on the slowest datacenter, the pull at the
  // start drops datacenters that the root's support keeps, for the
  // exponential and quadratic utilities; the search still ends at the exact
  // minimizer in a few probes. The linear utility's pull is constant, so
  // its support is the same at every s and the model lands on the root. A
  // single-entry warm row's support model has v = 0, so its root is
  // A * 0.045, the start s0 of the row.
  const Vec latency{0.005, 0.02, 0.045}, a_row{0.3, 0.5, 0.2},
      varphi_row{0.0, 0.0, 0.0};
  const Vec slowest{0.0, 0.0, 1.0};
  struct Case {
    std::shared_ptr<const UtilityFunction> utility;
    double weight;
    bool support_changes;
  };
  const Case cases[] = {
      {std::make_shared<ExponentialUtility>(0.02), 0.03, true},
      {std::make_shared<ExponentialUtility>(0.02), 0.3, true},
      {std::make_shared<ExponentialUtility>(0.02), 1.0, true},
      {std::make_shared<QuadraticUtility>(), 300.0, true},
      {std::make_shared<QuadraticUtility>(), 3000.0, true},
      {std::make_shared<LinearUtility>(), 3.0, false},
      {std::make_shared<LinearUtility>(), 30.0, false},
  };
  const auto support = [](const Vec& x) {
    std::vector<bool> in_support;
    for (const double v : x) in_support.push_back(v > 0.0);
    return in_support;
  };
  for (const Case& c : cases) {
    LambdaBlockInputs in;
    in.arrival = 1.0;
    in.latency_row = latency.span();
    in.a_row = a_row.span();
    in.varphi_row = varphi_row.span();
    in.rho = 1.0;
    in.latency_weight = c.weight;
    in.utility = c.utility.get();
    const std::string label =
        c.utility->name() + " w=" + std::to_string(c.weight);

    // The first probe's projection, at s0 = A * 0.045.
    const double pull = c.weight * c.utility->derivative(0.045);
    Vec start_point(3);
    for (std::size_t j = 0; j < 3; ++j)
      start_point[j] = a_row[j] + pull * latency[j];
    const Vec at_start = sort_project_simplex(start_point, in.arrival);

    Vec solution(3);
    BlockWorkspace ws;
    const int probes =
        solve_lambda_block_into(in, slowest.span(), solution.span(), ws)
            .probes;
    EXPECT_EQ(support(at_start) != support(solution), c.support_changes)
        << label;
    EXPECT_LE(lambda_block_residual(in, solution), kExactResidual) << label;
    EXPECT_LE(max_abs_diff(solution, solve_lambda(in)), kSameMinimizer)
        << label;
    EXPECT_LE(probes, c.support_changes ? 6 : 2) << label;
  }
}

TEST(LambdaBlock, WarmRowOnTheRootSupportCostsOneProbe) {
  // Re-solving from the minimizer itself: the support model's root on its
  // support is the root, and the first probe's projection on that support
  // meets the optimality conditions, so the search ends after one probe
  // with no Condat call. The weights keep the pull (w / rho) u' L within
  // a few arrivals, so the rounding of g at that probe stays inside the
  // root tolerance; with pulls thousands of times the arrival it can end a
  // few ulps outside it, and the search takes a second probe on the same
  // support (0.6% of rows drawn like LambdaBlockProperty's), which costs a
  // probe, not accuracy.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed + 500);
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    Vec latency(n), a_row(n), varphi_row(n);
    for (std::size_t j = 0; j < n; ++j) {
      latency[j] = rng.uniform(0.002, 0.05);
      a_row[j] = rng.uniform(0.0, 1.0);
      varphi_row[j] = rng.uniform(-0.5, 0.5);
    }
    for (const auto& utility : every_utility()) {
      LambdaBlockInputs in;
      in.arrival = rng.uniform(0.2, 3.0);
      in.latency_row = latency.span();
      in.a_row = a_row.span();
      in.varphi_row = varphi_row.span();
      in.rho = rng.uniform(1.0, 10.0);
      in.latency_weight = rng.uniform(0.1, 2.0);
      in.utility = utility.get();
      const std::string label =
          utility->name() + " seed " + std::to_string(seed);

      const Vec solution = solve_lambda(in);
      Vec again(n);
      BlockWorkspace ws;
      const LambdaBlockWork work =
          solve_lambda_block_into(in, solution.span(), again.span(), ws);
      EXPECT_EQ(work.probes, 1) << label;
      EXPECT_EQ(work.projections, 0) << label;
      EXPECT_LE(max_abs_diff(again, solution),
                kSameMinimizer * std::max(1.0, in.arrival))
          << label;
    }
  }
}

TEST(LambdaBlock, TiesAtTheThresholdGetNothing) {
  // The linear utility's pull is the constant -w / rho = -4, so every probe
  // projects y = a + pull L = (3, 2, 1) exactly. At A = 1 the support is
  // {0} with tau = 3 - 1 = 2, and y_1 sits exactly at tau. A warm row on
  // {0} meets the optimality conditions with the tie off its support; a
  // warm row on {0, 1} fails them (y_1 > tau does not hold) and falls back
  // to Condat. Every start ends at (1, 0, 0).
  LinearUtility utility;
  const Vec latency{0.25, 0.5, 0.75}, a_row{4.0, 4.0, 4.0},
      varphi_row{0.0, 0.0, 0.0};
  LambdaBlockInputs in;
  in.arrival = 1.0;
  in.latency_row = latency.span();
  in.a_row = a_row.span();
  in.varphi_row = varphi_row.span();
  in.rho = 1.0;
  in.latency_weight = 4.0;
  in.utility = &utility;
  struct Start {
    const char* name;
    Vec warm;
    int projections;
  };
  const Start starts[] = {{"zero", Vec{0.0, 0.0, 0.0}, 1},
                          {"root support", Vec{1.0, 0.0, 0.0}, 0},
                          {"tied entry in support", Vec{0.5, 0.5, 0.0}, 1},
                          {"disjoint", Vec{0.0, 0.0, 1.0}, 1}};
  for (const Start& start : starts) {
    Vec solution(3);
    BlockWorkspace ws;
    const LambdaBlockWork work =
        solve_lambda_block_into(in, start.warm.span(), solution.span(), ws);
    EXPECT_EQ(solution[0], 1.0) << start.name;
    EXPECT_EQ(solution[1], 0.0) << start.name;
    EXPECT_EQ(solution[2], 0.0) << start.name;
    EXPECT_EQ(work.projections, start.projections) << start.name;
    EXPECT_LE(lambda_block_residual(in, solution), kExactResidual)
        << start.name;
  }
}

TEST(MuBlock, InteriorOptimum) {
  MuBlockInputs in;
  in.alpha = 1.0;
  in.beta = 0.5;
  in.a_col_sum = 2.0;  // c = 1 + 1 - 0.5 = 1.5
  in.nu = 0.5;
  in.phi = 0.2;
  in.rho = 2.0;
  in.fuel_cell_price = 0.4;
  in.mu_max = 10.0;
  // mu* = c + (phi - p0)/rho = 1.5 + (0.2 - 0.4)/2 = 1.4.
  EXPECT_NEAR(solve_mu_block(in), 1.4, 1e-12);
}

TEST(MuBlock, ClampsAtZeroAndCapacity) {
  MuBlockInputs in;
  in.alpha = 0.1;
  in.beta = 0.0;
  in.a_col_sum = 0.0;
  in.nu = 0.0;
  in.rho = 1.0;
  in.mu_max = 0.5;

  in.phi = -100.0;  // pushes mu* far negative
  in.fuel_cell_price = 1.0;
  EXPECT_DOUBLE_EQ(solve_mu_block(in), 0.0);

  in.phi = +100.0;  // pushes mu* far above capacity
  EXPECT_DOUBLE_EQ(solve_mu_block(in), 0.5);
}

class MuBlockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MuBlockProperty, MatchesGoldenSectionOnRandomInputs) {
  Rng rng(GetParam() + 50);
  MuBlockInputs in;
  in.alpha = rng.uniform(0.0, 2.0);
  in.beta = rng.uniform(0.0, 1.0);
  in.a_col_sum = rng.uniform(0.0, 3.0);
  in.nu = rng.uniform(0.0, 2.0);
  in.phi = rng.uniform(-5.0, 5.0);
  in.rho = rng.uniform(0.1, 10.0);
  in.fuel_cell_price = rng.uniform(0.0, 3.0);
  in.mu_max = rng.uniform(0.1, 4.0);

  const double mu = solve_mu_block(in);
  EXPECT_GE(mu, 0.0);
  EXPECT_LE(mu, in.mu_max);

  auto objective = [&](double m) {
    const double c = in.alpha + in.beta * in.a_col_sum - in.nu;
    return (in.fuel_cell_price - in.phi) * m + 0.5 * in.rho * (c - m) * (c - m);
  };
  // Grid search confirms optimality.
  double best = objective(mu);
  for (int k = 0; k <= 2000; ++k) {
    const double m = in.mu_max * k / 2000.0;
    EXPECT_GE(objective(m), best - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MuBlockProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(NuBlock, AffineTaxClosedFormAgreement) {
  AffineCarbonTax tax(25.0);
  NuBlockInputs in;
  in.alpha = 1.0;
  in.beta = 0.2;
  in.a_col_sum = 5.0;  // c = 1 + 1 - mu
  in.mu = 0.5;
  in.phi = 0.3;
  in.rho = 2.0;
  in.grid_price = 40.0;
  in.carbon_tons_per_mwh = 0.5;
  in.emission_cost = &tax;
  // c = 1.5; nu* = c - (kappa*r + p - phi)/rho = 1.5 - (12.5 + 40 - 0.3)/2.
  const double expected = std::max(0.0, 1.5 - (12.5 + 40.0 - 0.3) / 2.0);
  EXPECT_NEAR(solve_nu_block(in), expected, 1e-9);
}

TEST(NuBlock, LargePhiGivesInteriorSolution) {
  AffineCarbonTax tax(10.0);
  NuBlockInputs in;
  in.alpha = 2.0;
  in.beta = 0.0;
  in.a_col_sum = 0.0;
  in.mu = 0.0;
  in.phi = 50.0;
  in.rho = 4.0;
  in.grid_price = 30.0;
  in.carbon_tons_per_mwh = 0.2;
  in.emission_cost = &tax;
  // nu* = c + (phi - p - kappa r)/rho = 2 + (50 - 30 - 2)/4 = 6.5.
  EXPECT_NEAR(solve_nu_block(in), 6.5, 1e-8);
}

class NuBlockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NuBlockProperty, OptimalForEveryEmissionPolicy) {
  Rng rng(GetParam() + 99);
  // Try all four policy families on the same random sub-problem.
  const AffineCarbonTax affine(rng.uniform(0.0, 60.0));
  const CapAndTradeCost cap(rng.uniform(0.0, 1.0), rng.uniform(0.0, 80.0));
  const SteppedCarbonTax stepped({0.2, 0.6}, {5.0, 20.0, 60.0});
  const QuadraticEmissionCost quadratic(rng.uniform(0.0, 30.0),
                                        rng.uniform(0.0, 10.0));
  const EmissionCostFunction* policies[] = {&affine, &cap, &stepped,
                                            &quadratic};

  NuBlockInputs in;
  in.alpha = rng.uniform(0.0, 2.0);
  in.beta = rng.uniform(0.0, 0.5);
  in.a_col_sum = rng.uniform(0.0, 4.0);
  in.mu = rng.uniform(0.0, 1.0);
  in.phi = rng.uniform(-20.0, 60.0);
  in.rho = rng.uniform(0.5, 10.0);
  in.grid_price = rng.uniform(5.0, 100.0);
  in.carbon_tons_per_mwh = rng.uniform(0.1, 1.0);

  for (const auto* policy : policies) {
    in.emission_cost = policy;
    const double nu = solve_nu_block(in);
    EXPECT_GE(nu, 0.0);

    auto objective = [&](double v) {
      const double c = in.alpha + in.beta * in.a_col_sum - in.mu;
      return policy->value(in.carbon_tons_per_mwh * v) +
             (in.grid_price - in.phi) * v + 0.5 * in.rho * (c - v) * (c - v);
    };
    const double f_star = objective(nu);
    // Dense scan over a generous range confirms global optimality.
    for (int k = 0; k <= 3000; ++k) {
      const double v = 20.0 * k / 3000.0;
      EXPECT_GE(objective(v), f_star - 1e-6)
          << "policy " << policy->name() << " nu* " << nu << " beaten at " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NuBlockProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

double a_block_objective(const ABlockInputs& in, const Vec& a) {
  double a_sum = 0.0;
  for (double x : a) a_sum += x;
  const double balance = in.alpha + in.beta * a_sum - in.mu - in.nu;
  double obj = in.phi * in.beta * a_sum + 0.5 * in.rho * balance * balance;
  for (std::size_t i = 0; i < a.size(); ++i)
    obj += in.varphi_col[i] * a[i] +
           0.5 * in.rho * (a[i] - in.lambda_col[i]) * (a[i] - in.lambda_col[i]);
  return obj;
}

/// max |x - P(x - g(x) / rho)| for the a sub-problem (eq. (20)).
double a_block_residual(const ABlockInputs& in, const Vec& x) {
  auto gradient = [&](const Vec& a) {
    double a_sum = 0.0;
    for (double v : a) a_sum += v;
    const double balance = in.alpha + in.beta * a_sum - in.mu - in.nu;
    Vec g(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      g[i] = in.phi * in.beta + in.varphi_col[i] + in.rho * in.beta * balance +
             in.rho * (a[i] - in.lambda_col[i]);
    return g;
  };
  auto project = [&](const Vec& v) {
    return sort_project_capped_simplex(v, in.capacity);
  };
  return check_first_order_optimality(x, gradient, project, 1.0 / in.rho,
                                      kExactResidual)
      .residual;
}

TEST(ABlock, TwoFrontEndBruteForce) {
  // A grid over {a >= 0, a_1 + a_2 <= S} never beats the exact solve, with
  // the cap slack and with it binding.
  const Vec varphi_col{0.3, -0.2}, lambda_col{0.8, 0.6};
  for (const double capacity : {5.0, 0.7}) {
    ABlockInputs in;
    in.alpha = 0.4;
    in.beta = 0.6;
    in.mu = 0.2;
    in.nu = 0.1;
    in.phi = -0.5;
    in.varphi_col = varphi_col.span();
    in.lambda_col = lambda_col.span();
    in.rho = 1.5;
    in.capacity = capacity;
    const Vec solution = solve_a(in);
    EXPECT_LE(solution[0] + solution[1], capacity);
    const double f_star = a_block_objective(in, solution);
    constexpr int kSteps = 400;
    for (int p = 0; p <= kSteps; ++p) {
      for (int q = 0; p + q <= kSteps; ++q) {
        const Vec x{capacity * p / kSteps, capacity * q / kSteps};
        ASSERT_GE(a_block_objective(in, x), f_star - 1e-10)
            << "capacity " << capacity << " beaten at " << p << "," << q;
      }
    }
  }
}

/// The a block as a root search over t, the form the closed form replaced:
/// g(t) = t - sum_i P_{sum <= S}(b - beta^2 t)_i, one (sort-based)
/// projection per probe of monotone_root on [0, S]. Kept as the reference
/// the scan must match.
Vec reference_a_block(const ABlockInputs& in) {
  const std::size_t m = in.varphi_col.size();
  const double shift = in.beta * (in.phi / in.rho + in.alpha - in.mu - in.nu);
  Vec base(m), out(m);
  for (std::size_t i = 0; i < m; ++i)
    base[i] = in.lambda_col[i] - in.varphi_col[i] / in.rho - shift;
  const double beta_sq = in.beta * in.beta;
  auto gap = [&](double t) {
    Vec shifted = base;
    for (auto& v : shifted) v -= beta_sq * t;
    out = sort_project_capped_simplex(shifted, in.capacity);
    double assigned = 0.0;
    for (const double v : out) assigned += v;
    return t - assigned;
  };
  monotone_root(gap, 0.0, in.capacity);
  return out;
}

TEST(ABlock, MatchesTheRootSearchForm) {
  // Random columns as drawn and in the cases the closed form treats on its
  // own: the cap binding, the cap exactly met (t* = S_j), no coupling
  // (beta = 0), every b_i <= 0, and a capacity of 0. In the "descending"
  // case b falls along the column, so the scan keeps exactly the uncapped
  // support and a cap below its t is proven on the scan's first check,
  // before any sweep; the "tight" case proves a tiny cap there in any
  // order.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed + 300);
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    Vec varphi_col(m), lambda_col(m);
    for (std::size_t i = 0; i < m; ++i) {
      varphi_col[i] = rng.uniform(-1.0, 1.0);
      lambda_col[i] = rng.uniform(0.0, 1.0);
    }
    Vec descending = lambda_col;
    std::sort(descending.begin(), descending.end(), std::greater<>());
    const Vec no_varphi(m, 0.0);
    ABlockInputs drawn;
    drawn.alpha = rng.uniform(0.0, 2.0);
    drawn.beta = rng.uniform(0.0, 1.5);
    drawn.mu = rng.uniform(0.0, 1.0);
    drawn.nu = rng.uniform(0.0, 1.0);
    drawn.phi = rng.uniform(-3.0, 3.0);
    drawn.varphi_col = varphi_col.span();
    drawn.lambda_col = lambda_col.span();
    drawn.rho = rng.uniform(0.2, 10.0);
    drawn.capacity = rng.uniform(0.5, 3.0);

    ABlockInputs uncapped = drawn;
    uncapped.capacity = 1e6;
    double free_sum = 0.0;
    for (const double x : solve_a(uncapped)) free_sum += x;

    ABlockInputs sorted = drawn;
    sorted.varphi_col = no_varphi.span();
    sorted.lambda_col = descending.span();
    sorted.capacity = 1e6;
    double sorted_sum = 0.0;
    for (const double x : solve_a(sorted)) sorted_sum += x;

    for (const char* variant : {"drawn", "capped", "exact", "flat",
                                "nonpositive", "descending", "tight", "zero"}) {
      const std::string shape = variant;
      ABlockInputs in = drawn;
      if (shape == "capped") in.capacity = 0.5 * free_sum;
      if (shape == "exact") in.capacity = free_sum;
      if (shape == "descending") {
        in = sorted;
        in.capacity = 0.5 * sorted_sum;
      }
      if (shape == "tight") in.capacity = 1e-3 * free_sum;
      if (shape == "zero") in.capacity = 0.0;
      if (shape == "flat") in.beta = 0.0;
      // phi / rho far above every lambda_i pushes every b_i below zero.
      if (shape == "nonpositive") in.phi = 50.0 * in.rho / std::max(in.beta, 0.1);
      if (shape == "nonpositive") in.beta = std::max(in.beta, 0.1);

      const Vec solution = solve_a(in);
      const Vec reference = reference_a_block(in);
      EXPECT_LE(max_abs_diff(solution, reference),
                kSameMinimizer * std::max(1.0, in.capacity))
          << "seed " << seed << " " << shape;
      if (shape == "nonpositive" || shape == "zero") {
        for (const double x : solution)
          EXPECT_EQ(x, 0.0) << "seed " << seed << " " << shape;
      }
    }
  }
}

TEST(ABlock, TiesAtTheThresholdGetNothing) {
  // With beta = 1 and no shift, b = lambda. The support {4} gives
  // t = 4 / 2 = 2 and {4, 2} gives 6 / 3 = 2 as well: theta = 2 exactly,
  // so the entries tied at 2 are assigned 0 whichever side of the tie the
  // scan puts them on.
  const Vec lambda_col{2.0, 4.0, 2.0, 1.0, -1.0, 2.0};
  const Vec varphi_col(6, 0.0);
  ABlockInputs in;
  in.beta = 1.0;
  in.varphi_col = varphi_col.span();
  in.lambda_col = lambda_col.span();
  in.rho = 1.0;
  for (const double capacity : {10.0, 2.0}) {
    in.capacity = capacity;  // 2.0: the cap exactly met by t* = 2
    const Vec solution = solve_a(in);
    EXPECT_EQ(solution[1], 2.0) << capacity;
    for (const std::size_t i : {0u, 2u, 3u, 4u, 5u})
      EXPECT_EQ(solution[i], 0.0) << capacity << " entry " << i;
    EXPECT_LE(max_abs_diff(solution, reference_a_block(in)), kSameMinimizer)
        << capacity;
  }
}

class ABlockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ABlockProperty, SatisfiesFirstOrderConditions) {
  // One random datacenter, solved as drawn and in four degenerate variants:
  // no capacity, a capacity equal to the column sum of the uncapped
  // minimizer (binding with a zero multiplier), a single front-end, and no
  // coupling (beta = 0).
  Rng rng(GetParam() + 7);
  const std::size_t m = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  Vec varphi_col(m), lambda_col(m);
  for (std::size_t i = 0; i < m; ++i) {
    varphi_col[i] = rng.uniform(-1.0, 1.0);
    lambda_col[i] = rng.uniform(0.0, 1.0);
  }
  ABlockInputs drawn;
  drawn.alpha = rng.uniform(0.0, 2.0);
  drawn.beta = rng.uniform(0.0, 1.0);
  drawn.mu = rng.uniform(0.0, 1.0);
  drawn.nu = rng.uniform(0.0, 1.0);
  drawn.phi = rng.uniform(-3.0, 3.0);
  drawn.varphi_col = varphi_col.span();
  drawn.lambda_col = lambda_col.span();
  drawn.rho = rng.uniform(0.2, 10.0);
  drawn.capacity = rng.uniform(0.5, 3.0);

  ABlockInputs uncapped = drawn;
  uncapped.capacity = 1e6;
  double free_sum = 0.0;
  for (const double x : solve_a(uncapped)) free_sum += x;

  for (const char* variant : {"drawn", "empty", "exact", "single", "flat"}) {
    const std::string shape = variant;
    ABlockInputs in = drawn;
    if (shape == "empty") in.capacity = 0.0;
    if (shape == "exact") in.capacity = free_sum;
    if (shape == "single") {
      in.varphi_col = varphi_col.span().first(1);
      in.lambda_col = lambda_col.span().first(1);
    }
    if (shape == "flat") in.beta = 0.0;

    const Vec solution = solve_a(in);
    double total = 0.0;
    for (double x : solution) {
      EXPECT_GE(x, 0.0) << shape;
      total += x;
    }
    EXPECT_LE(total, in.capacity + 1e-12) << shape;
    EXPECT_LE(a_block_residual(in, solution), kExactResidual) << shape;

    // Every warm start, the whole capacity on the last front-end (t0 = S)
    // included, reaches the same minimizer.
    Rng warm_rng(GetParam() + 100);
    for (const auto& [start, warm] : warm_starts(
             solution, in.capacity, solution.size() - 1, warm_rng)) {
      const Vec warm_solution = solve_a(in, warm);
      EXPECT_LE(a_block_residual(in, warm_solution), kExactResidual)
          << shape << " from " << start;
      EXPECT_LE(max_abs_diff(warm_solution, solution),
                kSameMinimizer * std::max(1.0, in.capacity))
          << shape << " from " << start;
    }

    // Also beat a handful of random feasible points.
    const double f_star = a_block_objective(in, solution);
    for (int k = 0; k < 50; ++k) {
      Vec x(solution.size());
      double s = 0.0;
      for (auto& e : x) {
        e = rng.uniform(0.0, 1.0);
        s += e;
      }
      const double scale =
          rng.uniform(0.0, 1.0) * in.capacity / std::max(s, 1e-12);
      for (auto& e : x) e *= scale;
      EXPECT_GE(a_block_objective(in, x), f_star - 1e-10) << shape;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ABlockProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(DualUpdates, MatchDefinitions) {
  EXPECT_DOUBLE_EQ(update_phi(1.0, 2.0, 0.5, 0.2, 3.0, 0.4, 0.1),
                   1.0 + 2.0 * (0.5 + 0.6 - 0.4 - 0.1));
  EXPECT_DOUBLE_EQ(update_varphi(0.5, 2.0, 1.2, 1.0), 0.5 + 2.0 * 0.2);
}

}  // namespace
}  // namespace ufc::admm
