// Machine-readable benchmark output.
//
// Every bench_* main collects its headline numbers into a BenchJson and
// writes BENCH_<name>.json into the working directory on exit:
//   {"bench":"query","schema_version":3,"git_sha":"...","timestamp":"...",
//    "machine":{"nproc":4,"cpu_model":"..."},
//    "metrics":{"topk_1m_ms":12.3,...}}
// so successive runs populate a perf trajectory without scraping the
// human-readable tables off stdout. Metric keys are flat snake_case;
// values are doubles (milliseconds, rows/s, ratios — the key names the
// unit). Non-finite values (a speedup ratio over a zero denominator)
// emit as null — %g would print "inf"/"nan", which is not JSON, and a
// bench must never write a file its consumer (scripts/perfguard) cannot
// parse.
//
// schema_version lets perfguard key its PERF_RUNS loader on the layout;
// bump it when the shape of this file changes:
//   1: bench/git_sha/timestamp/metrics (PR 5)
//   2: + schema_version itself, non-finite metrics as null
//   3: + machine stamp (nproc, cpu_model), so a number is never compared
//      with one from a machine of another class unawares
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "telemetry/metrics.h"
#include "util/log.h"

namespace perfdmf::bench {

inline constexpr int kBenchJsonSchemaVersion = 3;

class BenchJson {
 public:
  /// `name` becomes BENCH_<name>.json.
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void set(const std::string& metric, double value) { metrics_[metric] = value; }

  /// Best-effort: a failure to write is reported on stderr, never thrown
  /// (a benchmark that ran to completion should still exit 0).
  void write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::string out = "{\"bench\":\"" + telemetry::json_escape(name_) + "\"";
    out += ",\"schema_version\":" + std::to_string(kBenchJsonSchemaVersion);
    out += ",\"git_sha\":\"" + telemetry::json_escape(git_sha()) + "\"";
    out += ",\"timestamp\":\"" + util::iso8601_now() + "\"";
    out += ",\"machine\":{\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"cpu_model\":\"" + telemetry::json_escape(cpu_model()) + "\"}";
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& [key, value] : metrics_) {
      if (!first) out += ',';
      first = false;
      out += "\"" + telemetry::json_escape(key) + "\":";
      if (std::isfinite(value)) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%.6g", value);
        out += buf;
      } else {
        out += "null";
      }
    }
    out += "}}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }

 private:
  /// PERFDMF_GIT_SHA env wins (CI can pin it); otherwise ask git;
  /// "unknown" when neither works.
  static std::string git_sha() {
    if (const char* env = std::getenv("PERFDMF_GIT_SHA"); env && *env) {
      return env;
    }
    std::FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
    if (pipe == nullptr) return "unknown";
    char buf[64] = {};
    std::string sha;
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) sha = buf;
    ::pclose(pipe);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
    return sha.empty() ? "unknown" : sha;
  }

  /// The first "model name" in /proc/cpuinfo; "unknown" where there is
  /// none (other platforms, some ARM kernels).
  static std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("model name", 0) != 0) continue;
      const std::size_t value = line.find_first_not_of(" \t", line.find(':') + 1);
      if (value != std::string::npos) return line.substr(value);
    }
    return "unknown";
  }

  std::string name_;
  std::map<std::string, double> metrics_;  // sorted, stable output
};

}  // namespace perfdmf::bench
