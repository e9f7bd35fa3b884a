// One record per executing statement: governance, live progress, phase
// breakdown, plan and operator stats, outcome and trace ids.
//
// A Connection builds a StatementRecord on the calling thread's stack for
// each statement and installs it as the thread's current record:
//
//  - Governance. Row loops call poll(), one increment plus a stride check.
//    Operators charge() their state: past the soft budget they degrade to
//    the fallback operators, past 4x it the statement fails.
//  - Phases. Parse, plan and every wait site (lock, admission, fsync)
//    open a PhaseScope; execute is the remainder of the total.
//  - Live view. The record is published by pointer into its Database's
//    StatementRegistry, which PERFDMF_STATEMENTS reads under try_locks.
//  - Finish. The statement histogram, the Chrome trace event and, for a
//    slow, killed or EXPLAIN ANALYZE statement, the QueryTrace (ring and
//    WARN line) are views computed from the record when it dies.
//
// Governance, the live view and EXPLAIN ANALYZE's operator stats stay
// exact with telemetry compiled out; phase timing and the trace views
// need telemetry::enabled() and otherwise read no clock.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/span.h"
#include "util/deadline.h"

namespace perfdmf::sqldb {

/// Counts one governance event ("gov.timeouts", "gov.mem_degraded", ...).
/// Events are rare, so the registry lookup is not cached.
inline void count_gov(const char* name) {
  telemetry::MetricsRegistry::instance().counter(name).add();
}

struct OperatorStats;
class StatementRecord;

/// One row of PERFDMF_STATEMENTS, read from a record under its slot lock.
struct StatementInfo {
  std::uint64_t id = 0;
  std::string thread;
  std::string sql;                      // truncated to kSqlMax
  const char* phase = "execute";        // telemetry::phase_name
  double elapsed_ms = 0.0;
  double deadline_remaining_ms = -1.0;  // < 0: no deadline armed
  std::uint64_t rows = 0;               // rows polled so far (stride granularity)
  bool cancel_requested = false;
};

/// The running statements of one Database: fixed slots of a tiny mutex
/// and a record pointer. A record claims a free slot with try_lock (past
/// kSlots concurrent statements the rest go unlisted) and clears it when
/// it dies; snapshot() skips a busy slot, so it never stalls a statement.
class StatementRegistry {
 public:
  static constexpr std::size_t kSlots = 64;
  static constexpr std::size_t kSqlMax = 200;

  std::vector<StatementInfo> snapshot() const;

 private:
  friend class StatementRecord;
  struct Slot {
    mutable std::mutex mu;
    StatementRecord* record = nullptr;
  };
  std::array<Slot, kSlots> slots_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::size_t> cursor_{0};  // round-robin claim hint
};

class StatementRecord {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kPollStride = 256;

  /// `sql` is borrowed and must outlive the record; `cancel` may be set
  /// from any thread; `mem_bytes` 0 is unlimited. With a `listing` the
  /// record is a statement: listed, timed and traced. Without one it only
  /// governs (Connection::begin, executor work outside any connection).
  StatementRecord(std::string_view sql, StatementRegistry* listing,
                  util::Deadline deadline = {},
                  std::atomic<bool>* cancel = nullptr,
                  std::uint64_t mem_bytes = 0);
  ~StatementRecord();
  StatementRecord(const StatementRecord&) = delete;
  StatementRecord& operator=(const StatementRecord&) = delete;

  /// The calling thread's innermost record, or nullptr.
  static StatementRecord* current();
  std::string_view sql() const { return sql_; }

  // ----- governance ----------------------------------------------------
  const util::Deadline deadline;
  std::atomic<bool>* const cancel;

  /// Row-batch cancellation point: every kPollStride ticks it publishes
  /// the row count and calls check_now().
  void poll() {
    if (++tick_ % kPollStride == 0) {
      rows_polled_.store(tick_, std::memory_order_relaxed);
      check_now();
    }
  }
  /// Throws DbError{kCancelled} if the cancel flag is set (consuming it),
  /// DbError{kTimeout} if the deadline has expired.
  void check_now();
  /// False once the soft budget is exceeded (degrade); throws
  /// DbError{kMemBudget} past the hard cap.
  bool charge(std::uint64_t bytes);
  void release(std::uint64_t bytes) {
    mem_used_ = bytes < mem_used_ ? mem_used_ - bytes : 0;
  }
  /// An operator degraded under memory pressure (counted once).
  void note_mem_degraded();

  /// Group commit: a write that deferred its fsync leaves its WAL seq
  /// here (0: none); the Connection awaits it after releasing the
  /// statement's locks so one leader fsync can cover many commits.
  std::uint64_t pending_durable_seq = 0;

  // ----- plan, operators, outcome --------------------------------------
  /// EXPLAIN lines in decision order, then EXPLAIN ANALYZE's operator
  /// lines; joined into the QueryTrace at finish.
  std::vector<std::string> plan;
  std::vector<OperatorStats> ops;

  /// This record as the plan sink of the statement's own SELECT: always
  /// for EXPLAIN, when the slow-query log is armed otherwise, and only
  /// once, so a view's inner SELECT adds neither lines nor operators.
  StatementRecord* claim_plan(bool explain);
  void add(std::string line) { plan.push_back(std::move(line)); }

  /// EXPLAIN ANALYZE: time every phase and collect operator stats.
  void arm_analyze() { analyze_ = true; }
  /// EXPLAIN ANALYZE done: append one "analyze <op>: ..." line per
  /// operator to the plan and keep the trace whatever its duration.
  void finish_analyze();

  /// Operator interval; `own` says the calling SELECT holds the plan. The
  /// clock is read only when EXPLAIN ANALYZE or the timeline consumes it.
  Clock::time_point op_start(bool own) const {
    return (own && analyze_) || traced_ ? Clock::now() : Clock::time_point{};
  }
  void op_end(bool own, std::string label, Clock::time_point start,
              std::uint64_t rows_in, std::uint64_t rows_out,
              std::uint64_t entries = 0, std::uint64_t mem_bytes = 0,
              bool degraded = false);

  /// "completed" (default), "timed_out" or "cancelled" (a literal). A
  /// killed statement's trace is kept even under the slow threshold.
  void set_outcome(const char* outcome) { outcome_ = outcome; }

 private:
  friend class PhaseScope;
  friend class StatementRegistry;

  bool timed() const {
    return active_ && (threshold_us_ >= 0 || analyze_ || traced_);
  }
  void finish();

  // Read by StatementRegistry::snapshot: set before publication or atomic.
  std::string_view sql_;
  const std::string* thread_;  // the owner's util::current_thread_id()
  Clock::time_point start_;
  std::uint64_t id_ = 0;
  std::atomic<std::uint64_t> rows_polled_{0};
  std::atomic<telemetry::Phase> phase_{telemetry::Phase::kExecute};

  // Owner thread only.
  StatementRegistry::Slot* slot_ = nullptr;
  StatementRecord* prev_;
  std::uint64_t mem_soft_bytes_;
  std::uint64_t mem_used_ = 0;
  std::uint32_t tick_ = 0;
  bool mem_degraded_ = false;
  bool plan_claimed_ = false;
  bool active_ = false;   // telemetry on and a listed statement
  bool traced_ = false;   // on the trace timeline
  bool analyze_ = false;  // EXPLAIN ANALYZE
  bool forced_ = false;   // keep the trace whatever the duration
  const char* outcome_ = "completed";
  std::int64_t threshold_us_ = -1;  // slow-query threshold; < 0 disarmed
  std::uint64_t trace_id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::array<std::uint64_t, telemetry::kPhaseCount> micros_{};
};

/// Attributes one scope to `phase` of `record` (nullptr: histogram
/// only): the live view shows the phase, the phase's micros grow by the
/// scope's length, `histogram` records it, and a traced statement gets a
/// phase event. A scope nested in the phase already showing only feeds
/// its histogram, so time is never counted twice.
class PhaseScope {
 public:
  PhaseScope(telemetry::Phase phase, StatementRecord* record,
             telemetry::Histogram* histogram = nullptr);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  StatementRecord* record_;
  telemetry::Histogram* histogram_;
  telemetry::Phase phase_;
  telemetry::Phase prev_ = telemetry::Phase::kExecute;
  bool attribute_ = false;
  StatementRecord::Clock::time_point start_{};
};

/// Charges one operator's footprint against the statement budget and
/// releases it with the operator's state; charged() feeds EXPLAIN ANALYZE.
class ScopedMemCharge {
 public:
  explicit ScopedMemCharge(StatementRecord& record) : record_(record) {}
  ~ScopedMemCharge() { record_.release(charged_); }
  ScopedMemCharge(const ScopedMemCharge&) = delete;
  ScopedMemCharge& operator=(const ScopedMemCharge&) = delete;

  bool charge(std::uint64_t bytes) {
    charged_ += bytes;
    return record_.charge(bytes);
  }
  std::uint64_t charged() const { return charged_; }

 private:
  StatementRecord& record_;
  std::uint64_t charged_ = 0;
};

}  // namespace perfdmf::sqldb
