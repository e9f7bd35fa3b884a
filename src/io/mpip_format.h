// mpiP report importer (paper §3.1; Vetter/Chambreau's lightweight MPI
// profiler). mpiP writes one text report per run with per-task sections.
//
// Sections parsed:
//   "@--- MPI Time (seconds) ---"            per-task AppTime / MPITime
//   "@--- Callsite Time statistics ---"      per-task per-callsite timing
//
// Mapping: each MPI task becomes node N (context 0, thread 0). AppTime
// becomes the inclusive time of the synthetic "Application" event; each
// callsite becomes an event "MPI_<op>() [site <id>]" whose exclusive time
// is Count * Mean. Times land in the "TIME" metric in microseconds.
#pragma once

#include <filesystem>

#include "io/data_source.h"

namespace perfdmf::io {

class MpiPDataSource : public DataSource {
 public:
  explicit MpiPDataSource(std::filesystem::path file) : file_(std::move(file)) {}

  profile::TrialData load() override;

  static profile::TrialData parse(const std::string& content);

 private:
  std::filesystem::path file_;
};

/// Render a trial as an mpiP-style report (synthetic generator support).
/// The trial must have an "Application" event and MPI callsite events
/// shaped like the importer produces.
std::string render_mpip_report(const profile::TrialData& trial);

}  // namespace perfdmf::io
