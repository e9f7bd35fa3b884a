// dynaprof importer (paper §3.1; Mucci's dynamic instrumentation
// profiler). dynaprof's papiprobe/wallclockprobe output one text report
// per process/thread listing, for every instrumented function, the
// number of calls and the inclusive/exclusive totals of the probed
// metric.
//
// Report grammar accepted here (after the dynaprof banner):
//   DynaProf <version> Output
//   Probe: <probe name>
//   Metric: <metric name>
//   Process: <rank>  [Thread: <t>]
//
//   Function Summary
//   Name            Calls    Excl.       Incl.
//   <name>          <n>      <excl>      <incl>
//
// Values are in the probe's native unit (microseconds for wallclock,
// counts for PAPI probes); they are stored unconverted.
#pragma once

#include <filesystem>

#include "io/data_source.h"

namespace perfdmf::io {

class DynaprofDataSource : public DataSource {
 public:
  explicit DynaprofDataSource(std::filesystem::path file) : file_(std::move(file)) {}

  profile::TrialData load() override;

  static profile::TrialData parse(const std::string& content);
  /// Merge one report into an existing trial (multi-process runs write
  /// one file per process).
  static void parse_into(const std::string& content, profile::TrialData& trial);

 private:
  std::filesystem::path file_;
};

/// Render one process's report (workload generator support).
std::string render_dynaprof_report(const profile::TrialData& trial,
                                   std::size_t thread_index,
                                   const std::string& metric_name);

}  // namespace perfdmf::io
