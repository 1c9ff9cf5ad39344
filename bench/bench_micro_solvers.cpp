// Micro-benchmarks (google-benchmark): per-block sub-problem solvers, full
// ADM-G iterations across problem sizes, and the message-passing round,
// quantifying where the per-iteration time goes and how it scales in M, N.
#include <benchmark/benchmark.h>

#include "admm/admg.hpp"
#include "admm/blocks.hpp"
#include "math/projections.hpp"
#include "net/runtime.hpp"
#include "traces/scenario.hpp"
#include "util/rng.hpp"

namespace ufc {
namespace {

UfcProblem random_problem(std::size_t m, std::size_t n) {
  Rng rng(1234);
  UfcProblem p;
  p.power = ServerPowerModel{100.0, 200.0};
  p.fuel_cell_price = 80.0;
  p.latency_weight = 10.0;
  p.utility = std::make_shared<QuadraticUtility>();
  double capacity = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    DatacenterSpec dc;
    dc.name = "dc" + std::to_string(j);
    dc.servers = rng.uniform(1.7e4, 2.3e4);
    dc.grid_price = rng.uniform(15.0, 120.0);
    dc.carbon_rate = rng.uniform(200.0, 900.0);
    dc.fuel_cell_capacity_mw = dc.servers * 200.0 * 1.2 / 1e6;
    dc.emission_cost = std::make_shared<AffineCarbonTax>(25.0);
    capacity += dc.servers;
    p.datacenters.push_back(std::move(dc));
  }
  Rng shares_rng(7);
  p.arrivals = normal_shares(shares_rng, static_cast<int>(m), 0.6 * capacity,
                             0.35);
  p.latency_s = Mat(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      p.latency_s(i, j) = rng.uniform(0.002, 0.045);
  return p;
}

void BM_SimplexProjection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(project_simplex(v, 1.0));
  }
}
BENCHMARK(BM_SimplexProjection)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_LambdaBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  QuadraticUtility utility;
  Vec latency(n), a_row(n), varphi_row(n);
  for (std::size_t j = 0; j < n; ++j) {
    latency[j] = rng.uniform(0.002, 0.045);
    a_row[j] = rng.uniform(0.0, 0.5);
    varphi_row[j] = rng.uniform(-0.1, 0.1);
  }
  admm::LambdaBlockInputs in;
  in.arrival = 1.0;
  in.latency_row = latency.span();
  in.a_row = a_row.span();
  in.varphi_row = varphi_row.span();
  in.rho = 10.0;
  in.latency_weight = 10.0;
  in.utility = &utility;
  const Vec warm(n, 0.0);
  Vec out(n);
  admm::BlockWorkspace ws;
  for (auto _ : state) {
    admm::solve_lambda_block_into(in, warm.span(), out.span(), ws);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LambdaBlock)->Arg(4)->Arg(16)->Arg(64);

void BM_ABlock(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  Vec varphi_col(m), lambda_col(m);
  for (std::size_t i = 0; i < m; ++i) {
    varphi_col[i] = rng.uniform(-0.1, 0.1);
    lambda_col[i] = rng.uniform(0.0, 0.5);
  }
  admm::ABlockInputs in;
  in.alpha = 2.4;
  in.beta = 0.5;
  in.mu = 1.0;
  in.nu = 1.5;
  in.phi = 0.2;
  in.varphi_col = varphi_col.span();
  in.lambda_col = lambda_col.span();
  in.rho = 10.0;
  in.capacity = 4.0;
  const Vec warm(m, 0.0);
  Vec out(m);
  admm::BlockWorkspace ws;
  for (auto _ : state) {
    admm::solve_a_block_into(in, warm.span(), out.span(), ws);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ABlock)->Arg(10)->Arg(40)->Arg(160);

void BM_NuBlockPolicies(benchmark::State& state) {
  const AffineCarbonTax affine(25.0);
  const SteppedCarbonTax stepped({0.5, 2.0}, {10.0, 30.0, 90.0});
  const EmissionCostFunction* policy =
      state.range(0) == 0
          ? static_cast<const EmissionCostFunction*>(&affine)
          : static_cast<const EmissionCostFunction*>(&stepped);
  admm::NuBlockInputs in;
  in.alpha = 2.4;
  in.beta = 0.5;
  in.a_col_sum = 3.0;
  in.mu = 1.0;
  in.phi = 5.0;
  in.rho = 10.0;
  in.grid_price = 40.0;
  in.carbon_tons_per_mwh = 0.5;
  in.emission_cost = policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(admm::solve_nu_block(in));
  }
}
BENCHMARK(BM_NuBlockPolicies)->Arg(0)->Arg(1);

void BM_AdmgIteration(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto problem = random_problem(m, n);
  admm::AdmgSolver solver(problem);
  for (auto _ : state) {
    solver.step();
  }
  state.SetLabel("M=" + std::to_string(m) + " N=" + std::to_string(n));
}
BENCHMARK(BM_AdmgIteration)
    ->Args({10, 4})
    ->Args({40, 4})
    ->Args({160, 4})
    ->Args({40, 16})
    ->Args({64, 16});

void BM_FullSlotSolve(benchmark::State& state) {
  const auto scenario = traces::Scenario::generate({});
  const auto problem = scenario.problem_at(64);
  admm::AdmgOptions options;
  options.tolerance = 3e-3;
  options.max_iterations = 800;
  options.record_trace = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(admm::solve_admg(problem, options));
  }
}
BENCHMARK(BM_FullSlotSolve);

void BM_DistributedRound(benchmark::State& state) {
  const auto problem = random_problem(10, 4);
  net::DistributedOptions options;
  net::DistributedAdmgRuntime runtime(problem, options);
  int iteration = 0;
  for (auto _ : state) {
    runtime.step(iteration++);
  }
}
BENCHMARK(BM_DistributedRound);

void BM_MessageSerialization(benchmark::State& state) {
  net::Message msg;
  msg.source = net::front_end_id(3);
  msg.destination = net::datacenter_id(1);
  msg.payload = {1.0, 2.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::deserialize(net::serialize(msg)));
  }
}
BENCHMARK(BM_MessageSerialization);

}  // namespace
}  // namespace ufc

BENCHMARK_MAIN();
