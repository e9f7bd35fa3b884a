// gprof output importer (paper §3.1; Graham/Kessler/McKusick '82).
//
// Parses the textual report `gprof a.out gmon.out` prints: the flat
// profile gives exclusive ("self") seconds and call counts; the call
// graph's primary lines give inclusive time (self + children). gprof is
// a sequential profiler, so the data lands on thread 0:0:0 under the
// metric "TIME" (converted to microseconds, TAU's unit).
#pragma once

#include <filesystem>

#include "io/data_source.h"

namespace perfdmf::io {

class GprofDataSource : public DataSource {
 public:
  explicit GprofDataSource(std::filesystem::path file) : file_(std::move(file)) {}

  profile::TrialData load() override;

  /// Parse report text directly (used by tests).
  static profile::TrialData parse(const std::string& content);

 private:
  std::filesystem::path file_;
};

/// Write a gprof-style report (flat profile + call graph) for a
/// single-threaded trial; used by the synthetic workload generator.
std::string render_gprof_report(const profile::TrialData& trial);

}  // namespace perfdmf::io
