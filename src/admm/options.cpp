#include "admm/options.hpp"

#include "admm/ingredients.hpp"
#include "util/contract.hpp"

namespace ufc::admm {

AdmgOptions options_from_config(const Config& config, AdmgOptions defaults) {
  AdmgOptions options = defaults;
  options.rho = config.get_double("solver.rho", options.rho);
  options.epsilon = config.get_double("solver.epsilon", options.epsilon);
  options.tolerance = config.get_double("solver.tolerance", options.tolerance);
  options.max_iterations =
      config.get_int("solver.max_iterations", options.max_iterations);
  options.gaussian_back_substitution =
      config.get_bool("solver.gaussian_back_substitution",
                      options.gaussian_back_substitution);
  options.threads = config.get_int("solver.threads", options.threads);
  options.screening.enabled =
      config.get_bool("solver.screening", options.screening.enabled);
  options.screening.full_pass_every = config.get_int(
      "solver.screening_full_pass_every", options.screening.full_pass_every);
  // Solver-ingredient composition (docs/SOLVER_INGREDIENTS.md).
  options.penalty = config.get_string("solver.penalty", options.penalty);
  options.acceleration =
      config.get_string("solver.acceleration", options.acceleration);
  options.ingredients.balance_ratio = config.get_double(
      "solver.penalty_balance_ratio", options.ingredients.balance_ratio);
  options.ingredients.increase = config.get_double(
      "solver.penalty_increase", options.ingredients.increase);
  options.ingredients.decrease = config.get_double(
      "solver.penalty_decrease", options.ingredients.decrease);
  options.ingredients.balance_period = config.get_int(
      "solver.penalty_period", options.ingredients.balance_period);
  options.ingredients.over_relaxation = config.get_double(
      "solver.over_relaxation", options.ingredients.over_relaxation);
  options.ingredients.anderson_memory = config.get_int(
      "solver.anderson_memory", options.ingredients.anderson_memory);
  options.ingredients.anderson_safeguard = config.get_double(
      "solver.anderson_safeguard", options.ingredients.anderson_safeguard);
  // Same domains the solver constructor enforces, checked here so a typo in
  // the INI file surfaces as a config error, not a solver-internal one.
  UFC_EXPECTS(options.rho > 0.0);
  UFC_EXPECTS(options.epsilon > 0.5 && options.epsilon <= 1.0);
  UFC_EXPECTS(options.tolerance > 0.0);
  UFC_EXPECTS(options.max_iterations > 0);
  UFC_EXPECTS(options.threads >= 0);
  UFC_EXPECTS(options.screening.full_pass_every >= 1);
  // Ingredient knob domains and names, mirrored from the solver layer; an
  // unknown name throws listing the registered alternatives.
  validate_ingredients(options);
  return options;
}

}  // namespace ufc::admm
