// Run manifests: the schema marker, section building, the write/read round
// trip and solve-core serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "admm/solve_core.hpp"
#include "net/link_stats.hpp"
#include "obs/manifest.hpp"
#include "util/contract.hpp"

namespace ufc::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(RunManifest, StartsWithSchemaAndKeepsSectionOrder) {
  RunManifest manifest;
  manifest.set("command", JsonValue("solve"));
  manifest.set("slot", JsonValue(64));
  const JsonValue& doc = manifest.json();
  ASSERT_GE(doc.size(), 3u);
  EXPECT_EQ(doc.members()[0].first, "schema");
  EXPECT_EQ(doc.at("schema").as_string(), kRunManifestSchema);
  EXPECT_EQ(doc.members()[1].first, "command");
  EXPECT_EQ(doc.members()[2].first, "slot");
}

TEST(RunManifest, SetMetricsSnapshotsTheRegistry) {
  MetricsRegistry registry;
  registry.counter("solver.iterations").add(62);
  RunManifest manifest;
  manifest.set_metrics(registry);
  EXPECT_EQ(manifest.json()
                .at("metrics")
                .at("counters")
                .at("solver.iterations")
                .as_int(),
            62);
}

TEST(RunManifest, WriteReadRoundTrip) {
  const std::string path = temp_path("manifest_roundtrip.json");
  RunManifest manifest;
  manifest.set("command", JsonValue("simulate"));
  manifest.write(path);
  const RunManifest loaded = RunManifest::read(path);
  EXPECT_EQ(loaded.json().at("command").as_string(), "simulate");
  EXPECT_EQ(loaded.json().at("schema").as_string(), kRunManifestSchema);
  std::remove(path.c_str());
}

TEST(RunManifest, ReadRejectsWrongSchema) {
  const std::string path = temp_path("manifest_bad_schema.json");
  JsonValue bogus = JsonValue::object();
  bogus.set("schema", JsonValue("something-else"));
  write_json_file(path, bogus);
  EXPECT_THROW(RunManifest::read(path), ContractViolation);

  JsonValue no_schema = JsonValue::object();
  no_schema.set("command", JsonValue("solve"));
  write_json_file(path, no_schema);
  EXPECT_THROW(RunManifest::read(path), ContractViolation);
  std::remove(path.c_str());
}

TEST(Manifest, SolveCoreJsonCarriesResultAndBreakdown) {
  admm::SolveCore core;
  core.iterations = 62;
  core.converged = true;
  core.balance_residual = 1.25e-6;
  core.copy_residual = 2.5e-8;
  core.breakdown.ufc = -22.6;
  core.breakdown.utilization = 0.68;
  core.trace.objective = {1.0, 2.0, 3.0};

  const JsonValue section = solve_core_json(core);
  EXPECT_EQ(section.at("iterations").as_int(), 62);
  EXPECT_TRUE(section.at("converged").as_bool());
  EXPECT_DOUBLE_EQ(section.at("balance_residual").as_double(), 1.25e-6);
  EXPECT_DOUBLE_EQ(section.at("copy_residual").as_double(), 2.5e-8);
  EXPECT_EQ(section.at("watchdog_verdict").as_string(), "healthy");
  EXPECT_FALSE(section.at("fallback_centralized").as_bool());
  EXPECT_EQ(section.at("trace_length").as_int(), 3);
  EXPECT_DOUBLE_EQ(section.at("breakdown").at("ufc").as_double(), -22.6);
  EXPECT_DOUBLE_EQ(section.at("breakdown").at("utilization").as_double(),
                   0.68);
}

TEST(Manifest, LinkStatsJsonCountsTraffic) {
  net::LinkStats stats;
  stats.messages = 100;
  stats.bytes = 4096;
  stats.retransmissions = 3;
  const JsonValue section = link_stats_json(stats);
  EXPECT_EQ(section.at("messages").as_int(), 100);
  EXPECT_EQ(section.at("bytes").as_int(), 4096);
  EXPECT_EQ(section.at("retransmissions").as_int(), 3);
  EXPECT_EQ(section.at("delivery_failures").as_int(), 0);
}

}  // namespace
}  // namespace ufc::obs
