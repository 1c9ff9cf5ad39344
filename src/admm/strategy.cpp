#include "admm/strategy.hpp"

#include "util/contract.hpp"

namespace ufc::admm {

// ufc-lint: allow(expects-reach) — total switch over the enum; the trailing
// return covers out-of-range values defensively.
std::string to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::Grid:     return "Grid";
    case Strategy::FuelCell: return "FuelCell";
    case Strategy::Hybrid:   return "Hybrid";
  }
  return "?";
}

// ufc-lint: allow(expects-reach) — total switch over the enum.
BlockPinning pinning_for(Strategy strategy) {
  switch (strategy) {
    case Strategy::Grid:     return BlockPinning::PinMu;
    case Strategy::FuelCell: return BlockPinning::PinNu;
    case Strategy::Hybrid:   return BlockPinning::None;
  }
  return BlockPinning::None;
}

// ufc-lint: allow(expects-reach) — delegates to solve_admg, whose solver
// constructor validates the problem and options.
AdmgReport solve_strategy(const UfcProblem& problem, Strategy strategy,
                          AdmgOptions options) {
  options.pinning = pinning_for(strategy);
  return solve_admg(problem, options);
}

}  // namespace ufc::admm
