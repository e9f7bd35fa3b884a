// The two closed-loop workloads of the end-to-end benchmark:
//
//   ingest   TAU profile directories -> io::load_profile -> save_trial
//   explore  AnalysisServer requests (2 workers, 2 in flight)
//
// Each workload sets up its inputs from the seed (a fixed number of times
// per workload, so the set-up time has a median), warms up (explore),
// measures for a number of seconds (or a fixed number of ops),
// checks every op against values computed from the generated trials, and
// returns raw samples. run.py turns the samples into metrics.
//
// A traced run (--trace 1) traces every other op or block of ops. Tracing
// switches only between blocks, with no op in flight, and the registry
// deltas over the traced blocks are kept apart, so span times and
// counter-derived times cover the same ops.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;
  /// When > 0, run exactly this many ops instead of measuring for
  /// `seconds` (repeatability checks of the deterministic counts).
  int fixed_ops = 0;
};

/// Delta of one telemetry registry entry over the measured phase.
struct CounterDelta {
  double value = 0.0;       // counters: the increment
  std::uint64_t count = 0;  // histograms: samples recorded
  double sum = 0.0;         // histograms: sum of samples
};

struct OpSample {
  double ms = 0.0;
  bool ok = true;
  bool traced = false;
  int kind = 0;  // index into RunResult::kinds
};

struct RunResult {
  int clients = 1;
  std::vector<std::string> kinds;
  std::vector<double> setup_s;
  /// Opening the file-backed archive over existing data, once after the
  /// measured phase (ingest: its first archive).
  std::vector<double> reopen_s;
  /// Closing the archive, which checkpoints it (last close measured).
  double close_s = 0.0;
  double wall_s = 0.0;
  std::vector<OpSample> ops;
  /// The workload's row unit: points stored (ingest), points loaded by
  /// requests (explore).
  std::uint64_t rows = 0;
  std::uint64_t points_parsed = 0;
  /// Archive files (snapshot + WAL) after the measured phase (explore:
  /// after set-up), and the interval points stored in them.
  std::uint64_t disk_bytes = 0;
  std::uint64_t disk_rows = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  /// Registry deltas over the whole measured phase, and over its traced
  /// ops only.
  std::map<std::string, CounterDelta> counters;
  std::map<std::string, CounterDelta> traced_counters;
  /// Peak resident set of the process (ingest: when its first archive
  /// is full, so the figure does not grow with throughput).
  double peak_rss_mb = 0.0;
  /// EXPLAIN ANALYZE of the per-trial aggregate on the archive's newest
  /// trial (ingest: its first archive).
  std::uint64_t explain_examined = 0;
  std::uint64_t explain_qualifying = 0;
  std::string explain_plan;
  /// The archives still open. Closing one checkpoints it, which no
  /// metric covers, so the driver exits without closing them.
  std::vector<std::shared_ptr<void>> open_archives;
  /// explore, traced: engine statement spans of the result inserts.
  double result_insert_us = 0.0;
  std::uint64_t result_inserts = 0;
};

RunResult run_ingest(const Options& options);
RunResult run_explore(const Options& options);

}  // namespace perfbench
