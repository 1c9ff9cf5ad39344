#include "admm/async.hpp"

#include "util/contract.hpp"

namespace ufc::admm {

PartialParticipationExecutor::PartialParticipationExecutor(
    const UfcProblem& problem, AdmgOptions options, double participation,
    std::uint64_t seed)
    : AdmgSolver(problem, options) {
  UFC_EXPECTS(participation > 0.0 && participation <= 1.0);
  // The pinned baselines' convergence argument assumes every agent moves
  // every round. 1.0 is an exact sentinel meaning "every agent
  // participates", not a computed value.
  // ufc-lint: allow(float-equal)
  UFC_EXPECTS(options.pinning == BlockPinning::None || participation == 1.0);
  // At exactly 1 the straggler model stays disabled: the step consumes no
  // randomness and remains bit-identical to the synchronous path.
  if (participation < 1.0) enable_partial(participation, seed);
}

AsyncReport solve_async_admg(const UfcProblem& problem,
                             const AsyncOptions& options) {
  UFC_EXPECTS(options.participation > 0.0 && options.participation <= 1.0);
  // The executor re-checks this, but validating here keeps the error at the
  // API boundary the caller actually used.
  UFC_EXPECTS(options.admg.pinning == BlockPinning::None ||
              // ufc-lint: allow(float-equal) — 1.0 is an exact sentinel
              // meaning "every agent participates", not a computed value.
              options.participation == 1.0);  // pinned baselines stay sync

  PartialParticipationExecutor executor(problem, options.admg,
                                        options.participation, options.seed);
  AsyncReport report;
  static_cast<SolveCore&>(report) = executor.solve_warm();
  report.skipped_updates = executor.skipped_updates();
  return report;
}

}  // namespace ufc::admm
