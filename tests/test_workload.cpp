// The workload-generation and perf-gate satellites of the bench
// subsystem:
//   - util::Zipfian draws the YCSB-shaped skew it claims (log-log
//     frequency-rank slope ≈ -theta) and is deterministic under a seed;
//   - util::seed_from_env implements the PERFDMF_SEED replay contract;
//   - bench_json output (escaping, schema_version, non-finite -> null)
//     parses back through perfguard's reader;
//   - perfguard's regression math over the sqldb-hosted PERF_RUNS /
//     PERF_METRICS store: pass, fail, direction, missing-metric,
//     new-metric, zero-baseline, and first-run cases — including the
//     injected->N% regression the check.sh gate must catch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "../bench/bench_json.h"
#include "perfguard/perfguard.h"
#include "util/error.h"
#include "util/file.h"
#include "util/json.h"
#include "util/rng.h"

using namespace perfdmf;
namespace pg = perfdmf::perfguard;

// ------------------------------------------------------------- zipfian

TEST(Zipfian, FrequencyRankSlopeMatchesTheta) {
  constexpr std::uint64_t kN = 500;
  constexpr double kTheta = 0.8;
  constexpr int kDraws = 300000;

  util::Rng rng(12345);
  util::Zipfian zipf(kN, kTheta);
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t rank = zipf.next(rng);
    ASSERT_LT(rank, kN);
    ++counts[rank];
  }

  // Ranks must already be sorted by popularity (rank 0 hottest)...
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[100]);

  // ...and the log-log frequency-rank line over the well-sampled head
  // must have slope ≈ -theta (least squares over ranks 1..30).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (std::uint64_t r = 0; r < 30; ++r) {
    ASSERT_GT(counts[r], 0) << "rank " << r << " never drawn";
    const double x = std::log(static_cast<double>(r + 1));
    const double y = std::log(static_cast<double>(counts[r]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  EXPECT_NEAR(slope, -kTheta, 0.12)
      << "zipfian frequency-rank slope off: " << slope;
}

TEST(Zipfian, DeterministicUnderFixedSeed) {
  util::Zipfian zipf(10000, 0.99);
  util::Rng a(777);
  util::Rng b(777);
  util::Rng c(778);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t va = zipf.next(a);
    ASSERT_EQ(va, zipf.next(b)) << "same seed diverged at draw " << i;
    if (va != zipf.next(c)) diverged = true;
  }
  EXPECT_TRUE(diverged) << "different seeds produced identical streams";
}

TEST(Zipfian, ScatterStaysInRangeAndIsInjectiveEnough) {
  constexpr std::uint64_t kN = 5000;
  util::Zipfian zipf(kN, 0.99);
  std::map<std::uint64_t, int> seen;
  for (std::uint64_t r = 0; r < 1000; ++r) {
    const std::uint64_t key = zipf.scatter(r);
    EXPECT_LT(key, kN);
    ++seen[key];
  }
  // Scattering 1000 ranks into 5000 slots loses ~10% to birthday
  // collisions (5000·(1−e^{−0.2}) ≈ 906 distinct expected); well above
  // 800 means the hot set is genuinely spread, not clumped.
  EXPECT_GT(seen.size(), 800u);
}

// ------------------------------------------------------ seed plumbing

TEST(SeedFromEnv, OverridesAndFallsBack) {
  ::unsetenv("PERFDMF_SEED");
  EXPECT_EQ(util::seed_from_env(42), 42u);

  ::setenv("PERFDMF_SEED", "123", 1);
  EXPECT_EQ(util::seed_from_env(42), 123u);

  ::setenv("PERFDMF_SEED", "0x2a", 1);
  EXPECT_EQ(util::seed_from_env(7), 42u);

  ::setenv("PERFDMF_SEED", "not-a-seed", 1);
  EXPECT_EQ(util::seed_from_env(42), 42u);

  ::setenv("PERFDMF_SEED", "", 1);
  EXPECT_EQ(util::seed_from_env(42), 42u);

  ::unsetenv("PERFDMF_SEED");
}

// ------------------------------------------------- BENCH json parsing

TEST(BenchJsonParse, ReadsFieldsAndSkipsNullMetrics) {
  const pg::BenchRun run = pg::parse_bench_json(
      R"({"bench":"workload","schema_version":2,"git_sha":"abc\"123",)"
      R"("timestamp":"2026-08-09T00:00:00Z",)"
      R"("metrics":{"a_ms":12.5,"weird \\ name":3,"broken_ratio":null}})");
  EXPECT_EQ(run.bench, "workload");
  EXPECT_EQ(run.schema_version, 2);
  EXPECT_EQ(run.git_sha, "abc\"123");
  ASSERT_EQ(run.metrics.size(), 2u);
  EXPECT_EQ(run.metrics[0].first, "a_ms");
  EXPECT_DOUBLE_EQ(run.metrics[0].second, 12.5);
  EXPECT_EQ(run.metrics[1].first, "weird \\ name");
}

TEST(BenchJsonParse, RejectsMalformedAndFutureSchema) {
  EXPECT_THROW(pg::parse_bench_json("{"), ParseError);
  EXPECT_THROW(pg::parse_bench_json("[1,2]"), ParseError);
  EXPECT_THROW(pg::parse_bench_json(R"({"metrics":{}})"), ParseError);
  EXPECT_THROW(pg::parse_bench_json(R"({"bench":"x"})"), ParseError);
  EXPECT_THROW(
      pg::parse_bench_json(
          R"({"bench":"x","schema_version":99,"metrics":{}})"),
      ParseError);
}

TEST(BenchJsonParse, EmittedFileRoundTripsThroughBenchJson) {
  // End to end through the writer: special characters in the metric
  // name must be escaped, non-finite values must become null (and then
  // be dropped by the reader), and schema_version must be present.
  bench::BenchJson json("workload_test_roundtrip");
  json.set("plain_ms", 1.5);
  json.set("quote\"backslash\\name", 2.0);
  json.set("inf_speedup", std::numeric_limits<double>::infinity());
  json.write();

  const std::filesystem::path path = "BENCH_workload_test_roundtrip.json";
  const pg::BenchRun run = pg::load_bench_file(path);
  std::filesystem::remove(path);

  EXPECT_EQ(run.bench, "workload_test_roundtrip");
  EXPECT_EQ(run.schema_version, bench::kBenchJsonSchemaVersion);
  ASSERT_EQ(run.metrics.size(), 2u) << "null metric should be dropped";
  EXPECT_EQ(run.metrics[0].first, "plain_ms");
  EXPECT_EQ(run.metrics[1].first, "quote\"backslash\\name");
}

TEST(Json, ParsesEscapesArraysAndNumbers) {
  const auto v = util::json::parse(
      R"({"s":"aA\n","arr":[1,-2.5e1,true,false,null],"o":{}})");
  EXPECT_EQ(v.find("s")->as_string(), "aA\n");
  const auto& arr = v.find("arr")->as_array();
  ASSERT_EQ(arr.size(), 5u);
  EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(arr[1].as_number(), -25.0);
  EXPECT_TRUE(arr[2].as_bool());
  EXPECT_TRUE(arr[4].is_null());
  EXPECT_THROW(util::json::parse("{} trailing"), ParseError);
  EXPECT_THROW(util::json::parse(R"({"a":inf})"), ParseError);
}

// ----------------------------------------------------------- gating

TEST(GateRules, ParseAndMatch) {
  const auto rules = pg::parse_gate_rules(
      "# comment\n"
      "workload:*_ops_per_s\n"
      "query:hash_join_1m_ms   # trailing comment\n"
      "*:durable_commits_per_s\n"
      "workload:import_*_rows_per_s\n"
      "\n");
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_TRUE(pg::is_gated(rules, "workload", "zipfian_read_t8_ops_per_s"));
  EXPECT_FALSE(pg::is_gated(rules, "workload", "zipfian_read_t8_p99_us"));
  EXPECT_TRUE(pg::is_gated(rules, "query", "hash_join_1m_ms"));
  EXPECT_FALSE(pg::is_gated(rules, "other", "hash_join_1m_ms"));
  EXPECT_TRUE(pg::is_gated(rules, "sqldb", "durable_commits_per_s"));
  // Mid-pattern star: prefix and suffix must both match.
  EXPECT_TRUE(pg::is_gated(rules, "workload", "import_t4_rows_per_s"));
  EXPECT_FALSE(pg::is_gated(rules, "workload", "import_t4_rows_per_min"));
  EXPECT_THROW(pg::parse_gate_rules("no-colon-here\n"), ParseError);
  EXPECT_THROW(pg::parse_gate_rules("workload:**_ops_per_s\n"), ParseError);
}

TEST(GateRules, DirectionHeuristic) {
  EXPECT_TRUE(pg::lower_is_better("hash_join_1m_ms"));
  EXPECT_TRUE(pg::lower_is_better("fsync_micros"));
  EXPECT_TRUE(pg::lower_is_better("p99_us"));
  EXPECT_FALSE(pg::lower_is_better("zipfian_read_t8_ops_per_s"));
  EXPECT_FALSE(pg::lower_is_better("top_k_speedup"));
  EXPECT_FALSE(pg::lower_is_better("ms"));  // the suffix alone is no name
  // Work per stored row (statements, WAL bytes) is a cost: lower is better.
  EXPECT_TRUE(pg::lower_is_better("load_statements_per_row"));
  EXPECT_TRUE(pg::lower_is_better("load_wal_bytes_per_row"));
  EXPECT_FALSE(pg::lower_is_better("_per_row"));
  EXPECT_FALSE(pg::lower_is_better("p4096_load_rows_per_s"));
}

// ----------------------------------------------- perfguard regression math

namespace {

pg::BenchRun make_run(const std::string& bench,
                      std::vector<std::pair<std::string, double>> metrics) {
  pg::BenchRun run;
  run.bench = bench;
  run.git_sha = "deadbee";
  run.timestamp = "2026-08-09T00:00:00Z";
  run.schema_version = 2;
  run.metrics = std::move(metrics);
  return run;
}

const std::vector<pg::GateRule> kGates = {{"workload", "*_ops_per_s"},
                                          {"workload", "*_ms"}};

const pg::Delta* find_delta(const pg::Report& report,
                            const std::string& metric) {
  for (const pg::Delta& d : report.deltas) {
    if (d.metric == metric) return &d;
  }
  return nullptr;
}

}  // namespace

TEST(PerfGuard, WithinThresholdPasses) {
  pg::PerfDb db;
  db.record_run(
      make_run("workload", {{"mix_t8_ops_per_s", 1000.0}, {"scan_ms", 100.0}}),
      "baseline");
  db.record_run(
      make_run("workload", {{"mix_t8_ops_per_s", 900.0}, {"scan_ms", 110.0}}),
      "current");

  const pg::Report report = db.compare(25.0, kGates);
  EXPECT_TRUE(report.ok());
  const pg::Delta* d = find_delta(report, "mix_t8_ops_per_s");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->gated);
  EXPECT_FALSE(d->regressed);
  EXPECT_NEAR(d->delta_pct, -10.0, 1e-6);  // computed by the SQL engine
}

TEST(PerfGuard, InjectedRegressionFails) {
  pg::PerfDb db;
  db.record_run(make_run("workload", {{"scan_ms", 100.0}}), "baseline");
  db.record_run(make_run("workload", {{"scan_ms", 200.0}}), "current");

  const pg::Report report = db.compare(25.0, kGates);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions, 1);
  const pg::Delta* d = find_delta(report, "scan_ms");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->regressed);
  EXPECT_NEAR(d->delta_pct, 100.0, 1e-6);
}

TEST(PerfGuard, ThroughputDropFailsAndLatencyDropPasses) {
  pg::PerfDb db;
  db.record_run(
      make_run("workload", {{"mix_t8_ops_per_s", 1000.0}, {"scan_ms", 100.0}}),
      "baseline");
  // Throughput halves (bad); latency halves (good).
  db.record_run(
      make_run("workload", {{"mix_t8_ops_per_s", 500.0}, {"scan_ms", 50.0}}),
      "current");

  const pg::Report report = db.compare(25.0, kGates);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions, 1);
  EXPECT_TRUE(find_delta(report, "mix_t8_ops_per_s")->regressed);
  EXPECT_FALSE(find_delta(report, "scan_ms")->regressed);
}

TEST(PerfGuard, UngatedRegressionIsAdvisory) {
  pg::PerfDb db;
  db.record_run(make_run("workload", {{"p99_us", 10.0}}), "baseline");
  db.record_run(make_run("workload", {{"p99_us", 1000.0}}), "current");

  const pg::Report report = db.compare(25.0, kGates);
  EXPECT_TRUE(report.ok());
  const pg::Delta* d = find_delta(report, "p99_us");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->gated);
  EXPECT_FALSE(d->regressed);
  EXPECT_NEAR(d->delta_pct, 9900.0, 1e-6);
}

TEST(PerfGuard, MissingGatedMetricFails) {
  pg::PerfDb db;
  db.record_run(
      make_run("workload", {{"scan_ms", 100.0}, {"other_ms", 5.0}}),
      "baseline");
  db.record_run(make_run("workload", {{"other_ms", 5.0}}), "current");

  const pg::Report report = db.compare(25.0, kGates);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.missing, 1);
  const pg::Delta* d = find_delta(report, "scan_ms");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->missing_current);
}

TEST(PerfGuard, MissingUngatedMetricIsAdvisory) {
  pg::PerfDb db;
  db.record_run(make_run("workload", {{"p99_us", 10.0}}), "baseline");
  db.record_run(make_run("workload", {{"p50_us", 1.0}}), "current");

  const pg::Report report = db.compare(25.0, kGates);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(find_delta(report, "p99_us")->missing_current);
  EXPECT_TRUE(find_delta(report, "p50_us")->new_metric);
}

TEST(PerfGuard, FirstRunWithoutBaselinePasses) {
  pg::PerfDb db;
  db.record_run(make_run("workload", {{"scan_ms", 100.0}}), "current");

  const pg::Report report = db.compare(25.0, kGates);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.deltas.empty());
  ASSERT_EQ(report.first_run_benches.size(), 1u);
  EXPECT_EQ(report.first_run_benches[0], "workload");
}

TEST(PerfGuard, ZeroBaselineNonZeroCurrentRegresses) {
  pg::PerfDb db;
  db.record_run(make_run("workload", {{"stall_ms", 0.0}}), "baseline");
  db.record_run(make_run("workload", {{"stall_ms", 5.0}}), "current");

  const pg::Report report = db.compare(25.0, kGates);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(find_delta(report, "stall_ms")->regressed);
}

TEST(PerfGuard, LatestBaselineWins) {
  pg::PerfDb db;
  db.record_run(make_run("workload", {{"scan_ms", 10.0}}), "baseline");
  db.record_run(make_run("workload", {{"scan_ms", 100.0}}), "baseline");
  db.record_run(make_run("workload", {{"scan_ms", 110.0}}), "current");

  const pg::Report report = db.compare(25.0, kGates);
  EXPECT_TRUE(report.ok()) << "must compare against the newest baseline";
}

TEST(PerfGuard, RunsAreQueryableWithPlainSql) {
  // The dogfooding claim itself: the perf store is sqldb, so history
  // questions are SQL questions.
  pg::PerfDb db;
  db.record_run(make_run("workload", {{"a_ms", 1.0}, {"b_ms", 2.0}}),
                "baseline");
  db.record_run(make_run("query", {{"c_ms", 3.0}}), "current");

  auto rs = db.connection().execute(
      "SELECT r.bench, COUNT(*) FROM perf_runs r"
      " JOIN perf_metrics m ON m.run = r.id"
      " GROUP BY r.bench ORDER BY 1");
  ASSERT_TRUE(rs.next());
  EXPECT_EQ(rs.get_string(1), "query");
  EXPECT_EQ(rs.get_int(2), 1);
  ASSERT_TRUE(rs.next());
  EXPECT_EQ(rs.get_string(1), "workload");
  EXPECT_EQ(rs.get_int(2), 2);
}

TEST(PerfGuard, EndToEndInjectedRegressionThroughFiles) {
  // The full check.sh shape: a committed baseline file, a gate file, a
  // fresh BENCH file with one gated metric degraded past the threshold
  // — loaded from disk, stored in sqldb, compared in SQL, and failed.
  util::ScopedTempDir dir;
  const auto baseline_path = dir.path() / "BENCH_workload.json";
  util::write_file(baseline_path,
                   R"({"bench":"workload","schema_version":2,"git_sha":"base",)"
                   R"("metrics":{"zipfian_read_t8_ops_per_s":10000,)"
                   R"("zipfian_read_t8_p99_us":40}})");
  const auto current_path = dir.path() / "BENCH_workload_current.json";
  util::write_file(current_path,
                   R"({"bench":"workload","schema_version":2,"git_sha":"cur",)"
                   R"("metrics":{"zipfian_read_t8_ops_per_s":6000,)"
                   R"("zipfian_read_t8_p99_us":41}})");
  const auto gates =
      pg::parse_gate_rules("workload:*_ops_per_s\n");

  pg::PerfDb db;
  db.record_run(pg::load_bench_file(baseline_path), "baseline");
  db.record_run(pg::load_bench_file(current_path), "current");
  const pg::Report report = db.compare(25.0, gates);

  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions, 1);
  const pg::Delta* d = find_delta(report, "zipfian_read_t8_ops_per_s");
  ASSERT_NE(d, nullptr);
  EXPECT_NEAR(d->delta_pct, -40.0, 1e-6);
  const std::string table = pg::format_report(report);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos);

  // And the same current run within threshold passes.
  pg::PerfDb db2;
  db2.record_run(pg::load_bench_file(baseline_path), "baseline");
  auto ok_run = pg::load_bench_file(baseline_path);
  ok_run.metrics[0].second *= 1.1;
  db2.record_run(ok_run, "current");
  EXPECT_TRUE(db2.compare(25.0, gates).ok());
}
