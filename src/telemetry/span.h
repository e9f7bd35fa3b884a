// What statements report into: the phase vocabulary, the slow-query ring
// (PERFDMF_SLOW_QUERIES; threshold from PERFDMF_SLOW_QUERY_MS) and the
// trace timeline (PERFDMF_TRACE=1: statements, phases, operators, WAL
// group-commit rounds and checkpoint passes as Chrome trace events). A
// statement's own state lives in its sqldb::StatementRecord.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace perfdmf::telemetry {

enum class Phase { kParse = 0, kPlan, kAdmission, kLockWait, kExecute, kFsync };
inline constexpr std::size_t kPhaseCount = 6;

const char* phase_name(Phase phase);
/// `ms` with three decimals, the precision of every exported duration.
std::string format_ms(double ms);
/// Whole microseconds from `start` to `end` (0 if `end` is earlier).
inline std::uint64_t micros_between(std::chrono::steady_clock::time_point start,
                                    std::chrono::steady_clock::time_point end) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start).count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

/// One kept statement: a TraceRing entry and a PERFDMF_SLOW_QUERIES row.
struct QueryTrace {
  std::uint64_t id = 0;        // monotonic per process
  std::string started_at;      // ISO-8601 UTC
  std::string thread;          // id of the executing thread
  std::string sql;
  std::string plan;            // EXPLAIN access-path lines ('\n'-joined)
  double total_ms = 0.0;
  std::array<double, kPhaseCount> phase_ms{};
  std::string outcome = "completed";  // completed | timed_out | cancelled
};

/// Slow-query threshold in milliseconds; negative means disabled.
/// Initialized once from PERFDMF_SLOW_QUERY_MS (unset/invalid -> -1).
double slow_query_threshold_ms();
void set_slow_query_threshold_ms(double ms);

/// Runtime trace switch. Initialized once from PERFDMF_TRACE (unset, "0",
/// "false", "off" -> disabled); flips at runtime via set_trace_enabled.
bool trace_enabled();
void set_trace_enabled(bool on);

/// One complete ("ph":"X") timeline event; times in microseconds since the
/// process trace epoch, `tid` a small per-thread ordinal. `id` is set on
/// statement events; `parent` links phases/operators to their statement.
struct TraceEvent {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  const char* cat = "";   // static string: statement|phase|operator|wal|checkpoint
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
};

/// Process-global buffer of the newest items: a push into a full ring
/// overwrites the oldest in place (O(1)); snapshots are oldest first.
/// With `kStampIds` each pushed item gets the next monotonic `id`.
template <typename T, std::size_t Capacity, bool kStampIds = false>
class BoundedRing {
 public:
  static constexpr std::size_t kDefaultCapacity = Capacity;

  static BoundedRing& instance() {
    static BoundedRing* ring = new BoundedRing();  // never destroyed
    return *ring;
  }

  void push(T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if constexpr (kStampIds) item.id = next_id_++;
    if (items_.size() < capacity_) {  // not yet full: head_ is 0
      items_.push_back(std::move(item));
    } else {
      items_[head_] = std::move(item);
      head_ = (head_ + 1) % capacity_;
    }
  }
  std::vector<T> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ordered();
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }
  /// Shrinking drops the oldest items; capacity 0 is clamped to 1.
  void set_capacity(std::size_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<T> items = ordered();
    capacity_ = std::max<std::size_t>(1, n);
    if (items.size() > capacity_) {
      items.erase(items.begin(),
                  items.end() - static_cast<std::ptrdiff_t>(capacity_));
    }
    items_ = std::move(items);
    head_ = 0;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    items_.clear();
    head_ = 0;
  }

  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

 private:
  BoundedRing() = default;

  std::vector<T> ordered() const {
    const auto head = items_.begin() + static_cast<std::ptrdiff_t>(head_);
    std::vector<T> out(head, items_.end());
    out.insert(out.end(), items_.begin(), head);
    return out;
  }

  mutable std::mutex mutex_;
  std::vector<T> items_;  // once full, items_[head_] is the oldest
  std::size_t head_ = 0;
  std::size_t capacity_ = Capacity;
  std::uint64_t next_id_ = 1;
};

/// The most recent slow-query traces; ids are stamped on push.
using TraceRing = BoundedRing<QueryTrace, 256, true>;
/// The most recent trace-timeline events.
using TraceBuffer = BoundedRing<TraceEvent, 4096>;

/// Id of the calling thread's innermost traced statement (0: none). A
/// traced statement sets it for its lifetime and restores the enclosing
/// value when it finishes.
std::uint64_t& current_trace_id();

/// Record one complete event into the trace buffer. No-op unless tracing
/// is compiled in and enabled. `parent` 0 means current_trace_id(), so
/// instrumentation sites (WAL group-commit rounds, checkpoint passes)
/// never need to thread statement ids through explicitly.
void trace_emit(std::string name, const char* cat,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end,
                std::uint64_t parent = 0, std::uint64_t id = 0);

/// The slow-query ring as a JSON object string:
/// {"traces":[{"id":...,"sql":...,"phases":{...}},...]}.
std::string traces_to_json();

/// The trace buffer in Chrome trace-event format:
/// {"traceEvents":[{"name":...,"ph":"X","ts":...,"dur":...,...},...],
///  "displayTimeUnit":"ms"}. Loadable in chrome://tracing / Perfetto.
std::string traces_to_chrome_json();

}  // namespace perfdmf::telemetry
