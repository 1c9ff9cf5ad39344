#include "sim/session.hpp"

#include "util/contract.hpp"

namespace ufc::sim {

void apply_outages(UfcProblem& problem,
                   const std::vector<FuelCellOutage>& outages, int hour) {
  for (const auto& outage : outages) {
    UFC_EXPECTS(outage.datacenter < problem.num_datacenters());
    UFC_EXPECTS(outage.last_hour >= outage.first_hour);
    if (outage.covers(hour))
      problem.datacenters[outage.datacenter].fuel_cell_capacity_mw = 0.0;
  }
}

SolveSession::SolveSession(admm::Strategy strategy,
                           const SimulatorOptions& options)
    : strategy_(strategy), options_(options) {
  UFC_EXPECTS(options_.stride >= 1);
}

admm::AdmgReport SolveSession::solve(const traces::Scenario& scenario,
                                     int hour) const {
  UfcProblem problem = scenario.problem_at(hour);
  apply_outages(problem, options_.outages, hour);
  return admm::solve_strategy(problem, strategy_, options_.admg);
}

std::vector<admm::AdmgReport> solve_all_slots(const traces::Scenario& scenario,
                                              admm::Strategy strategy,
                                              const SimulatorOptions& options,
                                              std::vector<int>* slots_run) {
  SolveSession session(strategy, options);
  std::vector<admm::AdmgReport> reports;
  for (int t = 0; t < scenario.hours(); t += options.stride) {
    if (slots_run != nullptr) slots_run->push_back(t);
    reports.push_back(session.solve(scenario, t));
  }
  return reports;
}

}  // namespace ufc::sim
