#include "admm/options.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "util/contract.hpp"

namespace ufc::admm {

namespace {

Acceleration parse_acceleration(const std::string& name) {
  for (const Acceleration acceleration :
       {Acceleration::None, Acceleration::Anderson})
    if (name == to_string(acceleration)) return acceleration;
  throw ContractViolation("unknown solver.acceleration \"" + name +
                          "\" (available: none, anderson)");
}

}  // namespace

AdmgOptions options_from_config(const Config& config, AdmgOptions defaults) {
  // Every [solver] key read below is recorded, and any other solver.* key is
  // rejected afterwards: a typo or the key of a deleted option would
  // otherwise be silently ignored and the solve would run the defaults.
  std::vector<std::string> recognized;
  const auto key = [&recognized](const char* name) {
    recognized.emplace_back(name);
    return "solver." + recognized.back();
  };
  AdmgOptions options = defaults;
  options.rho = config.get_double(key("rho"), options.rho);
  options.epsilon = config.get_double(key("epsilon"), options.epsilon);
  options.tolerance = config.get_double(key("tolerance"), options.tolerance);
  options.max_iterations =
      config.get_int(key("max_iterations"), options.max_iterations);
  options.gaussian_back_substitution = config.get_bool(
      key("gaussian_back_substitution"), options.gaussian_back_substitution);
  options.threads = config.get_int(key("threads"), options.threads);
  options.acceleration = parse_acceleration(config.get_string(
      key("acceleration"), to_string(options.acceleration)));

  const std::string prefix = "solver.";
  for (const std::string& entry : config.keys()) {
    if (entry.rfind(prefix, 0) != 0) continue;
    const std::string name = entry.substr(prefix.size());
    if (std::find(recognized.begin(), recognized.end(), name) !=
        recognized.end())
      continue;
    std::string known;
    for (const std::string& recognized_name : recognized)
      known += (known.empty() ? "" : ", ") + recognized_name;
    throw ContractViolation("unknown [solver] key \"" + name +
                            "\" (recognized: " + known + ")");
  }
  // Same domains the solver constructor enforces, checked here so a typo in
  // the INI file surfaces as a config error, not a solver-internal one.
  UFC_EXPECTS(options.rho > 0.0);
  UFC_EXPECTS(options.epsilon > 0.5 && options.epsilon <= 1.0);
  UFC_EXPECTS(options.tolerance > 0.0);
  UFC_EXPECTS(options.max_iterations > 0);
  UFC_EXPECTS(options.threads >= 0);
  return options;
}

}  // namespace ufc::admm
