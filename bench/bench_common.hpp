// Shared helpers for the performance bench binaries. (The paper's tables
// and figures come from `ufc_cli reproduce`, see src/sim/reproduce.hpp.)
//
// Every binary prints its table to stdout and writes a CSV (named
// ufc_<bench>.csv) into the current working directory. Instrumented benches
// additionally write their headline numbers into the machine-readable
// BENCH_ufc.json artifact (schema ufc-bench-v1, validated by
// scripts/check_bench_json.py), keyed by bench name so re-runs update in
// place.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "sim/simulator.hpp"
#include "traces/scenario.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ufc::bench {

/// The paper's evaluation scenario (§IV-A defaults, seed 42).
inline traces::Scenario paper_scenario() {
  return traces::Scenario::generate(traces::ScenarioConfig{});
}

/// Paper-scale solver settings (tolerance chosen so the Fig. 11 iteration
/// distribution lands in the paper's band; see DESIGN.md).
inline sim::SimulatorOptions paper_options() { return {}; }

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "Paper reference: " << paper << "\n\n";
}

inline void note_csv(const CsvWriter& csv) {
  std::cout << "\nSeries written to " << csv.path() << " ("
            << csv.rows_written() << " rows)\n";
}

/// Where the machine-readable bench results accumulate. Overridable via
/// UFC_BENCH_JSON so CI smoke runs can write into their scratch directory.
inline std::string bench_artifact_path() {
  // Benches are single-threaded at startup; nobody calls setenv concurrently.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* override_path = std::getenv("UFC_BENCH_JSON");
  return override_path != nullptr && *override_path != '\0'
             ? std::string(override_path)
             : std::string("BENCH_ufc.json");
}

/// Replaces (or appends) this bench's entry in BENCH_ufc.json.
inline void write_bench_entry(const std::string& name,
                              obs::JsonValue metrics) {
  const std::string path = bench_artifact_path();
  obs::update_bench_artifact(path, name, std::move(metrics));
  std::cout << "Bench entry '" << name << "' written to " << path << "\n";
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
  const std::string spec(env);
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    std::size_t x = item.find('x');
    const std::size_t colon = item.find(':');
    bool ok = x != std::string::npos && colon != std::string::npos && x > 0 &&
              colon > x + 1 && colon + 1 < item.size();
    BenchSize size;
    if (ok) {
      try {
        size.m = static_cast<std::size_t>(std::stoul(item.substr(0, x)));
        size.n = static_cast<std::size_t>(
            std::stoul(item.substr(x + 1, colon - x - 1)));
        size.iterations = std::stoi(item.substr(colon + 1));
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok || size.m == 0 || size.n == 0 || size.iterations <= 0) {
      std::cerr << "UFC_BENCH_SIZES: malformed item '" << item
                << "' (expected MxN:iters, e.g. 64x16:20)\n";
      std::exit(2);
    }
    sizes.push_back(size);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return sizes;
}

}  // namespace ufc::bench
