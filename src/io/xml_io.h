// PerfDMF common XML representation (paper §3.1: "Export of profile data
// is also supported in a common XML representation").
//
// The document is a direct serialization of the common profile model:
//
//   <perfdmf_profile version="1">
//     <trial name=".." nodes=".." contexts=".." threads="..">
//       <field name=".." value=".."/> ...
//     </trial>
//     <metrics>   <metric id="0" name="TIME" derived="no"/> ... </metrics>
//     <events>    <event id="0" name="main" group=".."/> ... </events>
//     <atomicevents> <atomicevent id="0" name=".." group=".."/> ... </atomicevents>
//     <threads>   <thread id="0" node="0" context="0" thread="0"/> ... </threads>
//     <intervaldata>
//       <p e="0" t="0" m="0" incl=".." excl=".." calls=".." subrs=".."/> ...
//     </intervaldata>
//     <atomicdata>
//       <a e="0" t="0" n=".." max=".." min=".." mean=".." sd=".."/> ...
//     </atomicdata>
//   </perfdmf_profile>
//
// Percentages and per-call rates are derived, so they are recomputed on
// import rather than stored.
#pragma once

#include <filesystem>
#include <string>

#include "io/data_source.h"

namespace perfdmf::io {

/// Serialize a trial to the common XML representation.
std::string export_xml(const profile::TrialData& trial);

/// Parse the common XML representation.
profile::TrialData import_xml(const std::string& content);

class XmlDataSource : public DataSource {
 public:
  explicit XmlDataSource(std::filesystem::path file) : file_(std::move(file)) {}

  profile::TrialData load() override;

 private:
  std::filesystem::path file_;
};

}  // namespace perfdmf::io
