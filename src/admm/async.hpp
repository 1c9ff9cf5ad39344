// Asynchronous-update extension of the distributed ADM-G.
//
// In a WAN deployment, front-end proxies straggle: some rounds a proxy's
// fresh routing proposal does not arrive in time and the datacenters must
// reuse its last one. We model this as randomized partial participation —
// each front-end performs its lambda update in a given round only with
// probability `participation` (its previous prediction lambda~_i and dual
// are reused otherwise); datacenter blocks always run.
//
// PartialParticipationExecutor is AdmgSolver with the straggler model
// switched on, so the step, iteration skeleton, trace and convergence gate
// are the synchronous solver's, straggler draws aside.
//
// This is an empirical-robustness extension (the paper's ADM-G analysis is
// synchronous): tests verify participation = 1 reproduces the synchronous
// solver bit-for-bit and that lower participation still reaches the same
// objective, while the ablation bench quantifies the iteration inflation.
#pragma once

#include <cstdint>

#include "admm/admg.hpp"

namespace ufc::admm {

struct AsyncOptions {
  AdmgOptions admg;
  /// Per-round probability that a front-end's lambda update runs.
  double participation = 1.0;
  std::uint64_t seed = 1;  ///< Straggler draw seed.
};

struct AsyncReport : SolveCore {
  std::uint64_t skipped_updates = 0;  ///< Total stragglers over the run.
};

/// The asynchronous-participation executor: AdmgSolver with the straggler
/// model enabled. Participation must lie in (0, 1]; the pinned baselines
/// require participation == 1 (their convergence guarantees assume every
/// agent moves every round).
class PartialParticipationExecutor : public AdmgSolver {
 public:
  PartialParticipationExecutor(const UfcProblem& problem, AdmgOptions options,
                               double participation, std::uint64_t seed);

  using AdmgSolver::skipped_updates;
};

/// Runs ADM-G with randomized front-end participation.
AsyncReport solve_async_admg(const UfcProblem& problem,
                             const AsyncOptions& options = {});

}  // namespace ufc::admm
