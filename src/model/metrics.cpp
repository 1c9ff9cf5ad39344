#include "model/metrics.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace ufc {

IndexMetrics complementary_indexes(const UfcProblem& problem,
                                   const Mat& lambda, const Vec& mu) {
  UFC_EXPECTS(lambda.rows() == problem.num_front_ends());
  UFC_EXPECTS(lambda.cols() == problem.num_datacenters());
  UFC_EXPECTS(mu.size() == problem.num_datacenters());

  IndexMetrics metrics;
  double facility_mwh = 0.0;
  double grid_carbon_kg = 0.0;
  for (std::size_t j = 0; j < problem.num_datacenters(); ++j) {
    const auto& dc = problem.datacenters[j];
    const double demand = problem.demand_mw(j, lambda.col_sum(j));
    const double nu = std::max(0.0, demand - mu[j]);
    facility_mwh += demand;
    // IT energy is the facility energy stripped of the PUE overhead.
    metrics.it_energy_mwh += demand / dc.pue;
    grid_carbon_kg += nu * dc.carbon_rate;
  }
  UFC_EXPECTS(metrics.it_energy_mwh > 0.0);
  metrics.pue = facility_mwh / metrics.it_energy_mwh;
  // kg per kWh == tonne per MWh; divide kg by MWh*1000.
  metrics.cue_kg_per_kwh = grid_carbon_kg / (metrics.it_energy_mwh * 1000.0);

  double latency_weighted = 0.0;
  for (std::size_t i = 0; i < problem.num_front_ends(); ++i) {
    latency_weighted += problem.arrivals[i] *
                        problem.average_latency_s(i, lambda.row_span(i));
  }
  const double total_arrivals = problem.total_arrivals();
  const double mean_latency_s =
      total_arrivals > 0.0 ? latency_weighted / total_arrivals : 0.0;
  // Average power in kW over the 1-hour slot times the mean latency.
  metrics.erp_kws = facility_mwh * 1000.0 * mean_latency_s;
  return metrics;
}

}  // namespace ufc
