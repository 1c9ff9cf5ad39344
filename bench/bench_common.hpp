// Shared helpers for the performance bench binaries. (The paper's tables
// and figures come from `ufc_cli reproduce`, see src/sim/reproduce.hpp.)
//
// Every binary prints its table to stdout and writes a CSV (named
// ufc_<bench>.csv) into the current working directory. A bench whose own
// check fails exits 1 after printing its results, and a malformed
// environment override exits 2 before it solves anything.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "model/problem.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ufc::bench {

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "Paper reference: " << paper << "\n\n";
}

inline void note_csv(const CsvWriter& csv) {
  std::cout << "\nSeries written to " << csv.path() << " ("
            << csv.rows_written() << " rows)\n";
}

/// The seeded M x N instance of every size sweep (N datacenters of 17k-23k
/// servers, arrivals at 60% of their capacity), so the rows of
/// bench_parallel_scaling and bench_ingredients at one size solve the same
/// problem.
inline UfcProblem random_problem(std::size_t m, std::size_t n) {
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
  p.arrivals =
      normal_shares(shares_rng, static_cast<int>(m), 0.6 * capacity, 0.35);
  p.latency_s = Mat(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      p.latency_s(i, j) = rng.uniform(0.002, 0.045);
  return p;
}

/// Parses one field of an environment override as a positive integer. The
/// whole field must be the number: std::from_chars stops at trailing text,
/// which the end check refuses, and a '-' fails the parse of an unsigned
/// type or the positivity check of a signed one.
template <typename Int>
bool parse_positive(std::string_view field, Int& value) {
  const char* end = field.data() + field.size();
  const auto result = std::from_chars(field.data(), end, value);
  return result.ec == std::errc() && result.ptr == end && value > 0;
}

/// One (M, N, timed-iterations) point of a size-scaling sweep.
struct BenchSize {
  std::size_t m = 0;
  std::size_t n = 0;
  int iterations = 0;
};

/// Sizes for a size-scaling sweep: the baked-in `defaults`, unless the
/// UFC_BENCH_SIZES environment variable overrides them. The override format
/// is a comma-separated list of `MxN:iters`, e.g. "64x16:20,256x32:8" — CI
/// smoke jobs use it to compile-and-run the frontier benches at toy sizes
/// without paying the full 4096x256 sweep. A malformed override aborts with
/// a diagnostic rather than silently benchmarking the wrong sizes.
inline std::vector<BenchSize> bench_sizes(std::vector<BenchSize> defaults) {
  // Benches are single-threaded at startup; nobody calls setenv concurrently.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("UFC_BENCH_SIZES");
  if (env == nullptr || *env == '\0') return defaults;
  std::vector<BenchSize> sizes;
  std::string_view spec(env);
  while (true) {
    const std::size_t comma = spec.find(',');
    const std::string_view item = spec.substr(0, comma);
    const std::size_t x = item.find('x');
    const std::size_t colon = item.find(':');
    BenchSize size;
    const bool ok =
        x != std::string_view::npos && colon != std::string_view::npos &&
        x < colon && parse_positive(item.substr(0, x), size.m) &&
        parse_positive(item.substr(x + 1, colon - x - 1), size.n) &&
        parse_positive(item.substr(colon + 1), size.iterations);
    if (!ok) {
      std::cerr << "UFC_BENCH_SIZES: malformed item '" << item
                << "' (expected MxN:iters with positive integers, "
                   "e.g. 64x16:20)\n";
      std::exit(2);
    }
    sizes.push_back(size);
    if (comma == std::string_view::npos) break;
    spec.remove_prefix(comma + 1);
  }
  return sizes;
}

}  // namespace ufc::bench
