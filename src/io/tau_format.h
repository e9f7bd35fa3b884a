// TAU profile format (paper §3.1; TAU writes one `profile.N.C.T` file per
// node/context/thread, and one directory `MULTI__<METRIC>` per metric when
// several metrics are collected).
//
// File grammar (classic TAU ASCII profiles):
//   <n> templated_functions_MULTI_<METRIC>
//   # Name Calls Subrs Excl Incl ProfileCalls #
//   "<event name>" <calls> <subrs> <excl> <incl> <profile-calls> GROUP="<groups>"
//   ... n lines ...
//   <m> aggregates
//   <k> userevents
//   # eventname numevents max min mean sumsqr
//   "<user event>" <num> <max> <min> <mean> <sumsqr>
//
// Times are in microseconds.
#pragma once

#include <filesystem>

#include "io/data_source.h"
#include "io/dir_scan.h"

namespace perfdmf::io {

/// Reads a trial from a directory. Layouts supported:
///  - flat:   <dir>/profile.N.C.T            (single metric)
///  - multi:  <dir>/MULTI__<METRIC>/profile.N.C.T   (one subdir per metric)
/// An optional prefix/suffix filter restricts which profile files load.
class TauDataSource : public DataSource {
 public:
  explicit TauDataSource(std::filesystem::path directory, ScanFilter filter = {});

  profile::TrialData load() override;

  /// Parse one profile.N.C.T file's content into `trial` for `thread`.
  /// Exposed for tests and for tools that stream single files.
  static void parse_file(const std::string& content, const profile::ThreadId& thread,
                         profile::TrialData& trial);

 private:
  std::filesystem::path directory_;
  ScanFilter filter_;
};

/// Write a TrialData as TAU profiles under `directory` (multi-metric
/// layout when the trial has more than one metric, flat otherwise).
void write_tau_profiles(const profile::TrialData& trial,
                        const std::filesystem::path& directory);

}  // namespace perfdmf::io
