// DataSource: the abstract object through which interactions with profile
// data sources take place (paper §4). Each supported profile format has a
// concrete DataSource (GprofDataSource, TauDataSource, ...) that parses
// its on-disk representation into the common TrialData model.
#pragma once

#include <memory>

#include "profile/trial_data.h"

namespace perfdmf::io {

enum class ProfileFormat {
  kTau,
  kGprof,
  kMpiP,
  kDynaprof,
  kHpm,
  kPsrun,
  kPerfDmfXml,
};

const char* format_name(ProfileFormat format);

class DataSource {
 public:
  virtual ~DataSource() = default;

  /// Parse the source into the common representation. Derived fields
  /// (percentages, per-call) and trial dimensions are computed before
  /// returning. Throws ParseError / IoError on bad input.
  virtual profile::TrialData load() = 0;
};

}  // namespace perfdmf::io
