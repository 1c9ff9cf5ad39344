// Per-layer probes of traced runs: each times calls into one module's
// public functions (traces, sim, admm engine and blocks, math, the util
// thread pool, ctrl, net) on inputs of the workload's own problem family.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

/// Upper bound of blocks.lambda_kkt_residual: the first-order residual of
/// the lambda block minimizers, relative to the row's arrival.
inline constexpr double kLambdaKktBound = 1e-4;

/// Appends every per-layer probe metric (and the lambda-block KKT check) to
/// `result`. The engine, block and math probes run on the workload's
/// instance (the seeded 256 x 32 problem for scale_solve, seeded paper
/// hours otherwise); the traces, sim, ctrl and net probes on the seeded
/// paper scenario; the pool probes on both sizes by definition.
void run_layer_probes(const std::string& workload, std::uint64_t seed,
                      const std::string& socket_dir, Result& result);

}  // namespace perfbench
