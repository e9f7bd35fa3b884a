// In-memory span recorder for the benchmark's traced runs.
//
// A span brackets one call into a public function of the code under test
// (io::load_profile, DatabaseSession::save_trial). Each records its name,
// start, end, the enclosing span on the same thread and the op it belongs
// to. Spans stay
// in memory until the run ends; write_chrome_json() then writes them out
// and the per-layer self times are derived from the file (run.py).
//
// Recording is off unless the calling thread enabled it with
// ScopedTracing, so the untraced ops of a traced run pay one
// thread-local load per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";  // static string: "<layer>.<call>"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root (the op itself)
  std::uint64_t op = 0;
  std::uint32_t thread = 0;
  Clock::time_point start{};
  Clock::time_point end{};
};

class Tracer {
 public:
  static Tracer& instance();

  /// Chrome trace-event JSON; "args" carry id, parent and op.
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  friend class ScopedSpan;
  Tracer() = default;
  void add(const SpanRecord& span);

  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// Turns recording on for the calling thread for one op.
class ScopedTracing {
 public:
  ScopedTracing(bool on, std::uint64_t op);
  ~ScopedTracing();
  ScopedTracing(const ScopedTracing&) = delete;
  ScopedTracing& operator=(const ScopedTracing&) = delete;

 private:
  bool prev_on_;
  std::uint64_t prev_op_;
};

/// RAII span nested under the thread's innermost open span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecord record_;
  std::uint64_t prev_open_ = 0;
  bool on_ = false;
};

}  // namespace perfbench
