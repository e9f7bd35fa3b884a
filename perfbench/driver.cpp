// perfbench_driver: runs one benchmark workload and prints its raw samples
// as one JSON object on stdout (run.py turns them into metrics).
//
//   perfbench_driver --workload ingest|explore --seed N --seconds S
//                    --trace 0|1 --work-dir DIR [--ops N]
//                    [--spans-out FILE]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "telemetry/metrics.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using perfbench::RunResult;

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T, typename F>
std::string list(const std::vector<T>& values, F render) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += render(values[i]);
  }
  return out + "]";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string counters(const std::map<std::string, perfbench::CounterDelta>& all) {
  std::string out = "{";
  for (const auto& [name, d] : all) {
    if (out.size() > 1) out += ",";
    out += quote(name) + ":{\"value\":" + num(d.value) +
           ",\"count\":" + std::to_string(d.count) + ",\"sum\":" + num(d.sum) +
           "}";
  }
  return out + "}";
}

std::string render(const perfbench::Options& opt, const RunResult& r) {
  std::ostringstream out;
  out << "{\"workload\":" << quote(opt.workload) << ",\"seed\":" << opt.seed
      << ",\"trace\":" << (opt.trace ? 1 : 0);
  out << ",\"stamp\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << quote(cpu_model())
      << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE)
      << ",\"compiler\":" << quote(__VERSION__) << ",\"telemetry_compiled_in\":"
      << (perfdmf::telemetry::compiled_in() ? "true" : "false")
      << ",\"sync_mode\":\"on_commit\",\"seed\":" << opt.seed << "}";
  out << ",\"clients\":" << r.clients
      << ",\"kinds\":" << list(r.kinds, quote)
      << ",\"setup_s\":" << list(r.setup_s, num)
      << ",\"reopen_s\":" << list(r.reopen_s, num)
      << ",\"close_s\":" << num(r.close_s)
      << ",\"wall_s\":" << num(r.wall_s)
      << ",\"op_ms\":" << list(r.ops, [](const auto& o) { return num(o.ms); })
      << ",\"op_ok\":"
      << list(r.ops, [](const auto& o) { return std::string(o.ok ? "1" : "0"); })
      << ",\"op_traced\":"
      << list(r.ops,
              [](const auto& o) { return std::string(o.traced ? "1" : "0"); })
      << ",\"op_kind\":"
      << list(r.ops, [](const auto& o) { return std::to_string(o.kind); })
      << ",\"rows\":" << r.rows << ",\"points_parsed\":" << r.points_parsed
      << ",\"disk_bytes\":" << r.disk_bytes << ",\"disk_rows\":" << r.disk_rows
      << ",\"peak_rss_mb\":" << num(r.peak_rss_mb)
      << ",\"errors\":" << list(r.errors, quote)
      << ",\"explain\":{\"examined\":" << r.explain_examined
      << ",\"qualifying\":" << r.explain_qualifying
      << ",\"plan\":" << quote(r.explain_plan) << "}"
      << ",\"result_insert_us\":" << num(r.result_insert_us)
      << ",\"result_inserts\":" << r.result_inserts
      << ",\"counters\":" << counters(r.counters)
      << ",\"traced_counters\":" << counters(r.traced_counters) << "}";
  return out.str();
}

int usage(const char* why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload ingest|explore "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--ops N] [--spans-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::stoull(value);
    else if (arg == "--seconds") opt.seconds = std::stod(value);
    else if (arg == "--trace") opt.trace = value == "1";
    else if (arg == "--work-dir") opt.work_dir = value;
    else if (arg == "--ops") opt.fixed_ops = std::stoi(value);
    else if (arg == "--spans-out") spans_out = value;
    else return usage(("unknown argument " + arg).c_str());
  }
  if (opt.work_dir.empty()) return usage("--work-dir is required");

  RunResult result;
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "ingest") {
      result = perfbench::run_ingest(opt);
    } else if (opt.workload == "explore") {
      result = perfbench::run_explore(opt);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (!spans_out.empty()) {
    perfbench::Tracer::instance().write_chrome_json(spans_out);
  }
  std::cout << render(opt, result) << std::endl;
  // Skip closing result.open_archives (see RunResult): every thread has
  // been joined and the work directory is scratch.
  std::_Exit(0);
}
