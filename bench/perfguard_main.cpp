// perfguard CLI: the continuous perf-regression gate over BENCH_*.json.
//
//   perfguard [options] BENCH_workload.json [BENCH_query.json ...]
//     --baseline-dir DIR   committed baselines (default bench/baselines);
//                          every BENCH_*.json in it loads as 'baseline'
//     --db DIR             file-backed perf database; runs accumulate
//                          across invocations (default: in-memory)
//     --threshold PCT      regression threshold (default $PERFGUARD_THRESHOLD
//                          or 25)
//     --gated FILE         gate rules (default <baseline-dir>/gated.txt)
//     --record-baseline    adopt the given files as the new baseline:
//                          copy them into --baseline-dir and exit 0
//     --sql STMT           after loading, run STMT against the perf
//                          database and print the rows (ad-hoc history
//                          queries: the perf store is just sqldb)
//     --list               print every stored run, then the verdict
//
// The report names the machine behind each bench's baseline and current
// run (BENCH json v3 stamps) and flags a baseline from another machine;
// that never changes the verdict.
//
// Exit status: 0 clean (or first run / baseline recorded), 1 when a
// gated metric regressed past the threshold or went missing, 2 on usage
// or I/O errors. scripts/check.sh wires this in as the perfguard stage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "perfguard/perfguard.h"
#include "util/error.h"
#include "util/file.h"

using namespace perfdmf;
namespace fs = std::filesystem;

namespace {

void print_result_set(sqldb::ResultSet& rs) {
  for (std::size_t c = 1; c <= rs.column_count(); ++c) {
    std::printf("%s%s", c > 1 ? " | " : "", rs.column_names()[c - 1].c_str());
  }
  std::printf("\n");
  while (rs.next()) {
    for (std::size_t c = 1; c <= rs.column_count(); ++c) {
      const sqldb::Value v = rs.get(c);
      std::printf("%s%s", c > 1 ? " | " : "", v.to_string().c_str());
    }
    std::printf("\n");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfguard [--baseline-dir DIR] [--db DIR]"
               " [--threshold PCT] [--gated FILE] [--record-baseline]"
               " [--sql STMT] [--list] BENCH_*.json...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path baseline_dir = "bench/baselines";
  fs::path db_dir;
  fs::path gated_file;
  std::string sql;
  double threshold = 25.0;
  if (const char* env = std::getenv("PERFGUARD_THRESHOLD"); env && *env) {
    threshold = std::strtod(env, nullptr);
  }
  bool record_baseline = false;
  bool list_runs = false;
  std::vector<fs::path> current_files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--baseline-dir") baseline_dir = next();
    else if (arg == "--db") db_dir = next();
    else if (arg == "--threshold") threshold = std::strtod(next(), nullptr);
    else if (arg == "--gated") gated_file = next();
    else if (arg == "--record-baseline") record_baseline = true;
    else if (arg == "--sql") sql = next();
    else if (arg == "--list") list_runs = true;
    else if (!arg.empty() && arg[0] == '-') return usage();
    else current_files.emplace_back(arg);
  }
  if (current_files.empty() && !list_runs && sql.empty()) return usage();
  if (threshold <= 0.0) {
    std::fprintf(stderr, "perfguard: threshold must be positive\n");
    return 2;
  }
  if (gated_file.empty()) gated_file = baseline_dir / "gated.txt";

  try {
    if (record_baseline) {
      fs::create_directories(baseline_dir);
      for (const fs::path& file : current_files) {
        const perfguard::BenchRun run = perfguard::load_bench_file(file);
        const fs::path dest = baseline_dir / ("BENCH_" + run.bench + ".json");
        util::write_file_atomic(dest, util::read_file(file), /*sync=*/false);
        std::printf("perfguard: recorded baseline %s (%zu metrics, git %s)\n",
                    dest.string().c_str(), run.metrics.size(),
                    run.git_sha.c_str());
      }
      return 0;
    }

    auto db = db_dir.empty() ? perfguard::PerfDb()
                             : perfguard::PerfDb(db_dir);

    // Committed baselines first, then this run's files.
    if (fs::is_directory(baseline_dir)) {
      for (const fs::path& file : util::list_files(baseline_dir)) {
        const std::string name = file.filename().string();
        if (name.rfind("BENCH_", 0) != 0 ||
            file.extension() != ".json") {
          continue;
        }
        db.record_run(perfguard::load_bench_file(file), "baseline");
      }
    }
    for (const fs::path& file : current_files) {
      db.record_run(perfguard::load_bench_file(file), "current");
    }

    if (list_runs) {
      auto rs = db.connection().execute(
          "SELECT id, bench, kind, git_sha, timestamp FROM perf_runs"
          " ORDER BY id");
      print_result_set(rs);
    }
    if (!sql.empty()) {
      auto rs = db.connection().execute(sql);
      print_result_set(rs);
    }
    if (current_files.empty()) return 0;

    std::vector<perfguard::GateRule> gates;
    if (fs::exists(gated_file)) {
      gates = perfguard::parse_gate_rules(util::read_file(gated_file));
    } else {
      std::fprintf(stderr,
                   "perfguard: no gate file at %s — every metric is"
                   " advisory\n",
                   gated_file.string().c_str());
    }

    const perfguard::Report report = db.compare(threshold, gates);
    std::fputs(perfguard::format_report(report).c_str(), stdout);
    return report.ok() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "perfguard: %s\n", e.what());
    return 2;
  }
}
