// perfguard: the self-hosted perf-regression gate.
//
// Every bench binary emits BENCH_<name>.json (bench/bench_json.h); this
// module closes the loop by loading those files into sqldb itself — the
// PerfDMF premise applied to PerfDMF: the performance database IS this
// database. Runs land in a PERF_RUNS / PERF_METRICS schema, the
// baseline-vs-current deltas are computed *by the SQL engine* (a LEFT
// JOIN with arithmetic in the select list, exercising the PR 4 hash-join
// path on every CI run), and scripts/check.sh fails when a gated metric
// regresses past a threshold.
//
// Schema (bootstrapped on first use, shares a database with anything):
//   PERF_RUNS    (id PK, bench, git_sha, timestamp, schema_version, kind)
//   PERF_METRICS (id PK, run -> PERF_RUNS.id, name, value)
// `kind` is 'baseline' (loaded from a committed bench/baselines/ file or
// recorded by --record-baseline) or 'current' (this run). With a
// file-backed database the history of every run accumulates and stays
// queryable with plain SQL (perfguard --sql).
//
// Direction: a metric named *_ms / *_micros / *_us / *_ns is
// lower-is-better; everything else (ops_per_s, *_speedup, ratios) is
// higher-is-better. Gate only metrics whose name carries a direction.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sqldb/connection.h"

namespace perfdmf::perfguard {

/// One parsed BENCH_<name>.json.
struct BenchRun {
  std::string bench;
  std::string git_sha;
  std::string timestamp;
  std::int64_t schema_version = 1;  // pre-versioning files are v1
  /// name -> value, document order. Null-valued metrics (non-finite at
  /// emit time) are dropped at parse.
  std::vector<std::pair<std::string, double>> metrics;
};

/// Parse the BENCH json text; throws ParseError on malformed input or an
/// unsupported schema_version.
BenchRun parse_bench_json(std::string_view text);
BenchRun load_bench_file(const std::filesystem::path& path);

/// True when smaller values of `metric` are better (latency-shaped names
/// and work per row, `*_per_row`); false for throughput/ratio-shaped names.
bool lower_is_better(std::string_view metric);

/// A gate rule "bench:metric"; either side may carry one '*' anywhere
/// (matches any run of characters). Rules come from
/// bench/baselines/gated.txt.
struct GateRule {
  std::string bench;
  std::string metric;
};

/// Parse rules, one per line; '#' starts a comment, blank lines skipped.
std::vector<GateRule> parse_gate_rules(std::string_view text);
bool is_gated(const std::vector<GateRule>& rules, std::string_view bench,
              std::string_view metric);

/// One baseline/current metric pair (or a hole on either side).
struct Delta {
  std::string bench;
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  /// (current - baseline) / baseline * 100, as computed by the SQL
  /// engine; 0 when either side is missing or the baseline is 0.
  double delta_pct = 0.0;
  bool lower_better = false;
  bool gated = false;
  bool regressed = false;       // gated and worse than threshold
  bool missing_current = false; // in baseline, absent from this run
  bool new_metric = false;      // in this run, absent from baseline
};

struct Report {
  std::vector<Delta> deltas;
  /// Benches with a current run but no stored baseline (first run):
  /// compared against nothing, reported, never failed.
  std::vector<std::string> first_run_benches;
  double threshold_pct = 0.0;
  int regressions = 0;
  int missing = 0;  // gated metrics absent from the current run

  bool ok() const { return regressions == 0 && missing == 0; }
};

/// The PERF_RUNS / PERF_METRICS store over a sqldb connection.
class PerfDb {
 public:
  /// In-memory store (one-shot compare).
  PerfDb();
  /// File-backed store at `directory`: runs accumulate across
  /// invocations into a durable, SQL-queryable perf history.
  explicit PerfDb(const std::filesystem::path& directory);
  /// Share an existing connection (tests; embedding in a live database).
  explicit PerfDb(std::shared_ptr<sqldb::Connection> connection);

  sqldb::Connection& connection() { return *connection_; }

  /// Record one bench run; `kind` is "baseline" or "current".
  /// Returns the new PERF_RUNS id.
  std::int64_t record_run(const BenchRun& run, std::string_view kind);

  /// Latest PERF_RUNS id for (bench, kind); -1 when none exists.
  std::int64_t latest_run(std::string_view bench, std::string_view kind);

  /// Benches that have at least one run of `kind`, sorted.
  std::vector<std::string> benches_with(std::string_view kind);

  /// Compare the latest 'current' run of every bench against its latest
  /// 'baseline' run. Deltas are computed in SQL; gating/thresholding is
  /// applied to the result rows.
  Report compare(double threshold_pct, const std::vector<GateRule>& gates);

 private:
  void ensure_schema();

  std::shared_ptr<sqldb::Connection> connection_;
};

/// Human-readable report table (the CLI and check.sh output).
std::string format_report(const Report& report);

}  // namespace perfdmf::perfguard
