// Ablations of the design choices DESIGN.md calls out:
//  1. Gaussian back substitution on/off (ADM-G vs plain 4-block ADMM),
//  2. the correction relaxation epsilon,
//  3. the penalty rho (all values reach the same objective; speed differs),
//  4. ADM-G vs the projected-subgradient centralized baseline,
//  5. warm starting each slot from the previous slot's iterate.
// Every variant runs on the same representative slots of the paper scenario.
#include <array>
#include <cstddef>

#include "admm/centralized.hpp"
#include "bench_common.hpp"

namespace {

struct VariantResult {
  double mean_iterations = 0.0;
  double max_iterations = 0.0;
  double converged_fraction = 0.0;
  double ufc_total = 0.0;
};

VariantResult run_variant(const ufc::traces::Scenario& scenario,
                          const ufc::admm::AdmgOptions& options,
                          const std::vector<int>& slots) {
  VariantResult result;
  for (int slot : slots) {
    const auto report =
        ufc::admm::solve_admg(scenario.problem_at(slot), options);
    result.mean_iterations += report.iterations;
    result.max_iterations =
        std::max(result.max_iterations, static_cast<double>(report.iterations));
    result.converged_fraction += report.converged ? 1.0 : 0.0;
    result.ufc_total += report.breakdown.ufc;
  }
  result.mean_iterations /= static_cast<double>(slots.size());
  result.converged_fraction /= static_cast<double>(slots.size());
  return result;
}

/// A dense update carrying every field that differs between scenario hours
/// (arrivals, grid prices, carbon rates, fuel-cell caps), so apply_update
/// turns a warm solver's problem into `problem`.
ufc::admm::ProblemUpdate full_update(const ufc::UfcProblem& problem) {
  ufc::admm::ProblemUpdate update;
  for (std::size_t i = 0; i < problem.num_front_ends(); ++i)
    update.arrivals.emplace_back(i, problem.arrivals[i]);
  for (std::size_t j = 0; j < problem.num_datacenters(); ++j) {
    const auto& dc = problem.datacenters[j];
    update.grid_prices.emplace_back(j, dc.grid_price);
    update.carbon_rates.emplace_back(j, dc.carbon_rate);
    update.fuel_cell_caps.emplace_back(j, dc.fuel_cell_capacity_mw);
  }
  return update;
}

}  // namespace

int main() {
  using namespace ufc;
  bench::print_header("Ablations - ADM-G design choices",
                      "correction step, epsilon, rho, baseline");

  const auto scenario = bench::paper_scenario();
  std::vector<int> slots;
  for (int t = 4; t < scenario.hours(); t += 12) slots.push_back(t);

  admm::AdmgOptions base;
  base.tolerance = 3e-3;
  base.max_iterations = 800;
  base.record_trace = false;

  TablePrinter table({"Variant", "mean iters", "max iters", "converged %",
                      "UFC total"});
  CsvWriter csv("ufc_ablation.csv", {"variant", "mean_iters", "max_iters",
                                     "converged_pct", "ufc_total"});
  auto report_variant = [&](const std::string& name,
                            const VariantResult& result) {
    table.add_row(name,
                  {result.mean_iterations, result.max_iterations,
                   100.0 * result.converged_fraction, result.ufc_total},
                  1);
    csv.row_strings({name, csv_number(result.mean_iterations),
                     csv_number(result.max_iterations),
                     csv_number(100.0 * result.converged_fraction),
                     csv_number(result.ufc_total)});
  };

  report_variant("ADM-G (default)", run_variant(scenario, base, slots));

  {
    auto plain = base;
    plain.gaussian_back_substitution = false;
    report_variant("plain 4-block ADMM (no correction)",
                   run_variant(scenario, plain, slots));
  }
  for (double epsilon : {0.6, 0.8, 1.0}) {
    auto options = base;
    options.epsilon = epsilon;
    report_variant("epsilon = " + fixed(epsilon, 1),
                   run_variant(scenario, options, slots));
  }
  for (double rho : {0.3, 3.0, 10.0, 30.0}) {
    auto options = base;
    options.rho = rho;
    options.max_iterations = 4000;
    report_variant("rho = " + fixed(rho, 1),
                   run_variant(scenario, options, slots));
  }
  {
    // The case ADM-G exists for: a non-smooth, non-strongly-convex carbon
    // policy (stepped tax). Compare the corrected and uncorrected methods.
    auto stepped = std::make_shared<SteppedCarbonTax>(
        std::vector<double>{0.3, 1.0}, std::vector<double>{5.0, 30.0, 120.0});
    auto admg_stepped = base;
    auto plain_stepped = base;
    plain_stepped.gaussian_back_substitution = false;
    VariantResult corrected, uncorrected;
    for (int slot : slots) {
      auto problem = scenario.problem_at(slot);
      for (auto& dc : problem.datacenters) dc.emission_cost = stepped;
      const auto a = admm::solve_admg(problem, admg_stepped);
      const auto b = admm::solve_admg(problem, plain_stepped);
      corrected.mean_iterations += a.iterations;
      corrected.max_iterations =
          std::max(corrected.max_iterations, static_cast<double>(a.iterations));
      corrected.converged_fraction += a.converged ? 1.0 : 0.0;
      corrected.ufc_total += a.breakdown.ufc;
      uncorrected.mean_iterations += b.iterations;
      uncorrected.max_iterations = std::max(
          uncorrected.max_iterations, static_cast<double>(b.iterations));
      uncorrected.converged_fraction += b.converged ? 1.0 : 0.0;
      uncorrected.ufc_total += b.breakdown.ufc;
    }
    const auto count = static_cast<double>(slots.size());
    corrected.mean_iterations /= count;
    corrected.converged_fraction /= count;
    uncorrected.mean_iterations /= count;
    uncorrected.converged_fraction /= count;
    report_variant("stepped tax, ADM-G", corrected);
    report_variant("stepped tax, plain ADMM", uncorrected);
  }
  {
    // Warm starting across consecutive hours (operational optimization; the
    // paper's Fig. 11 counts cold starts).
    admm::AdmgOptions admg = base;
    VariantResult warm;
    admm::AdmgSolver solver(scenario.problem_at(slots.front()), admg);
    bool first = true;
    for (int slot : slots) {
      if (!first) solver.apply_update(full_update(scenario.problem_at(slot)));
      const auto report = first ? solver.solve() : solver.solve_warm();
      first = false;
      warm.mean_iterations += report.iterations;
      warm.max_iterations = std::max(warm.max_iterations,
                                     static_cast<double>(report.iterations));
      warm.converged_fraction += report.converged ? 1.0 : 0.0;
      warm.ufc_total += report.breakdown.ufc;
    }
    warm.mean_iterations /= static_cast<double>(slots.size());
    warm.converged_fraction /= static_cast<double>(slots.size());
    report_variant("warm start across slots", warm);
  }
  table.print();

  // Baseline comparison on one representative slot: iteration counts of the
  // projected-subgradient centralized method at matched solution quality.
  const auto problem = scenario.problem_at(64);
  const auto admg = admm::solve_admg(problem, base);
  admm::CentralizedOptions central;
  central.max_iterations = 1000;
  const auto oracle = admm::solve_centralized(problem, central);
  std::cout << "\nSlot 64: ADM-G " << admg.iterations << " iterations (UFC "
            << fixed(admg.breakdown.ufc, 1) << "); projected subgradient "
            << oracle.iterations << " iterations (UFC "
            << fixed(oracle.objective, 1) << ")\n";

  bench::note_csv(csv);
  return 0;
}
