// HPMToolkit importer (paper §3.1; IBM's Hardware Performance Monitor,
// DeRose '01). hpmcount/libhpm write one text file per process with one
// block per instrumented section:
//
//   Instrumented section: 1 - Label: main - process: 0
//     file: sppm.f, lines: 10 <--> 400
//     Count: 1
//     Wall Clock Time: 12.345 seconds
//     Total time in user mode: 11.9 seconds
//     PM_FPU0_CMPL (FPU 0 instructions) : 123456
//     PM_INST_CMPL (Instructions completed) : 7890123
//     ...
//
// Each section becomes an interval event; "Wall Clock Time" becomes the
// TIME metric (seconds -> microseconds); every "PM_*"/"PAPI_*" counter
// line becomes its own metric.
#pragma once

#include <filesystem>

#include "io/data_source.h"

namespace perfdmf::io {

class HpmDataSource : public DataSource {
 public:
  explicit HpmDataSource(std::filesystem::path file) : file_(std::move(file)) {}

  profile::TrialData load() override;

  static profile::TrialData parse(const std::string& content);
  static void parse_into(const std::string& content, profile::TrialData& trial);

 private:
  std::filesystem::path file_;
};

/// Render one process's HPMToolkit-style report.
std::string render_hpm_report(const profile::TrialData& trial,
                              std::size_t thread_index);

}  // namespace perfdmf::io
