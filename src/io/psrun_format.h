// PerfSuite psrun importer (paper §3.1; NCSA). psrun writes one XML
// document per process in hardware-counting mode:
//
//   <hwpcreport class="PAPI" mode="count">
//     <executableinfo><name>app</name></executableinfo>
//     <machineinfo><processes>4</processes></machineinfo>
//     <processinfo><rank>0</rank></processinfo>
//     <wallclock units="seconds">12.5</wallclock>
//     <hwpceventlist>
//       <hwpcevent name="PAPI_TOT_CYC" derived="no">123456</hwpcevent>
//       ...
//     </hwpceventlist>
//   </hwpcreport>
//
// Counting mode reports whole-program totals, so the data maps onto a
// single "Entire application" event; each hwpcevent becomes a metric and
// wallclock becomes TIME (seconds -> microseconds).
#pragma once

#include <filesystem>

#include "io/data_source.h"

namespace perfdmf::io {

class PsrunDataSource : public DataSource {
 public:
  explicit PsrunDataSource(std::filesystem::path file) : file_(std::move(file)) {}

  profile::TrialData load() override;

  static profile::TrialData parse(const std::string& content);
  static void parse_into(const std::string& content, profile::TrialData& trial);

 private:
  std::filesystem::path file_;
};

/// Render one process's psrun XML document.
std::string render_psrun_report(const profile::TrialData& trial,
                                std::size_t thread_index);

}  // namespace perfdmf::io
