#include "sqldb/statement_record.h"

#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "sqldb/executor.h"
#include "util/error.h"
#include "util/log.h"

namespace perfdmf::sqldb {

namespace {

thread_local StatementRecord* t_current = nullptr;
std::atomic<std::uint64_t> g_next_trace_id{1};
using telemetry::micros_between;

}  // namespace

std::vector<StatementInfo> StatementRegistry::snapshot() const {
  std::vector<StatementInfo> out;
  const auto now = StatementRecord::Clock::now();
  for (const Slot& slot : slots_) {
    std::unique_lock<std::mutex> lock(slot.mu, std::try_to_lock);
    if (!lock.owns_lock() || slot.record == nullptr) continue;
    // The slot lock orders the record's construction before these reads,
    // and the record cannot die while the lock is held.
    const StatementRecord& r = *slot.record;
    StatementInfo info;
    info.id = r.id_;
    info.thread = *r.thread_;
    info.sql.assign(r.sql_.substr(0, kSqlMax));
    info.phase = telemetry::phase_name(r.phase_.load(std::memory_order_relaxed));
    info.elapsed_ms = static_cast<double>(micros_between(r.start_, now)) / 1000.0;
    info.rows = r.rows_polled_.load(std::memory_order_relaxed);
    if (r.deadline.armed()) {
      info.deadline_remaining_ms = static_cast<double>(
          r.deadline.remaining_or(std::chrono::milliseconds(0)).count());
    }
    info.cancel_requested =
        r.cancel != nullptr && r.cancel->load(std::memory_order_relaxed);
    out.push_back(std::move(info));
  }
  return out;
}

StatementRecord::StatementRecord(std::string_view sql,
                                 StatementRegistry* listing,
                                 util::Deadline deadline,
                                 std::atomic<bool>* cancel,
                                 std::uint64_t mem_bytes)
    : deadline(deadline),
      cancel(cancel),
      sql_(sql),
      thread_(&util::current_thread_id()),
      start_(Clock::now()),
      prev_(t_current),
      mem_soft_bytes_(mem_bytes) {
  t_current = this;
  if (listing == nullptr) return;
  active_ = telemetry::enabled();
  if (active_) {
    threshold_us_ = std::llround(telemetry::slow_query_threshold_ms() * 1000.0);
    traced_ = telemetry::trace_enabled();
    if (traced_) {
      trace_id_ = g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
      parent_id_ = std::exchange(telemetry::current_trace_id(), trace_id_);
    }
  }
  // Publish: claim a free slot without waiting. Everything the registry
  // reads non-atomically is set by now; the slot mutex orders it.
  const std::size_t hint = listing->cursor_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < StatementRegistry::kSlots && !slot_; ++i) {
    auto& slot = listing->slots_[(hint + i) % StatementRegistry::kSlots];
    std::unique_lock<std::mutex> lock(slot.mu, std::try_to_lock);
    if (!lock.owns_lock() || slot.record != nullptr) continue;
    id_ = listing->next_id_.fetch_add(1, std::memory_order_relaxed);
    slot_ = &slot;
    slot.record = this;
  }
}

StatementRecord::~StatementRecord() {
  if (slot_ != nullptr) {
    // Unconditional lock: a reader holds the slot only for a bounded
    // copy, and the slot must drop this pointer before the record dies.
    std::lock_guard<std::mutex> lock(slot_->mu);
    slot_->record = nullptr;
  }
  t_current = prev_;
  if (traced_) telemetry::current_trace_id() = parent_id_;
  if (active_) finish();
}

StatementRecord* StatementRecord::current() { return t_current; }

void StatementRecord::check_now() {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    // Consume the flag: the cancellation applies to this statement; the
    // connection remains usable for the next one.
    cancel->store(false, std::memory_order_relaxed);
    count_gov("gov.cancellations");
    throw DbError("statement cancelled", DbError::Kind::kCancelled);
  }
  if (deadline.expired()) {
    count_gov("gov.timeouts");
    throw DbError("statement timeout exceeded", DbError::Kind::kTimeout);
  }
}

bool StatementRecord::charge(std::uint64_t bytes) {
  mem_used_ += bytes;
  // A soft breach degrades to spill-free operators; only a statement whose
  // state still grows 4x past the budget is killed outright.
  const std::uint64_t hard_bytes = mem_soft_bytes_ * 4;
  if (hard_bytes != 0 && mem_used_ > hard_bytes) {
    throw DbError("statement memory hard cap exceeded (" +
                      std::to_string(mem_used_) + " > " +
                      std::to_string(hard_bytes) + " bytes)",
                  DbError::Kind::kMemBudget);
  }
  return mem_soft_bytes_ == 0 || mem_used_ <= mem_soft_bytes_;
}

void StatementRecord::note_mem_degraded() {
  if (mem_degraded_) return;  // count once per statement
  mem_degraded_ = true;
  count_gov("gov.mem_degraded");
}

StatementRecord* StatementRecord::claim_plan(bool explain) {
  if (!explain && (plan_claimed_ || threshold_us_ < 0)) return nullptr;
  plan_claimed_ = true;
  return this;
}

void StatementRecord::op_end(bool own, std::string label,
                             Clock::time_point start, std::uint64_t rows_in,
                             std::uint64_t rows_out, std::uint64_t entries,
                             std::uint64_t mem_bytes, bool degraded) {
  own = own && analyze_;
  if (!own && !traced_) return;
  const auto end = Clock::now();
  if (traced_) telemetry::trace_emit(label, "operator", start, end, trace_id_);
  if (!own) return;
  ops.push_back({std::move(label), rows_in, rows_out,
                 micros_between(start, end), entries, mem_bytes, degraded});
}

void StatementRecord::finish_analyze() {
  for (const auto& op : ops) {
    std::string line = "analyze " + op.label +
                       ": rows_in=" + std::to_string(op.rows_in) +
                       " rows_out=" + std::to_string(op.rows_out) +
                       " time_us=" + std::to_string(op.micros);
    if (op.entries != 0) line += " entries=" + std::to_string(op.entries);
    if (op.mem_bytes != 0) line += " mem_bytes=" + std::to_string(op.mem_bytes);
    if (op.degraded) line += " degraded";
    plan.push_back(std::move(line));
  }
  forced_ = true;
}

void StatementRecord::finish() {
  const auto end = Clock::now();
  const std::uint64_t total_us = micros_between(start_, end);
  static telemetry::Histogram& statements =
      telemetry::MetricsRegistry::instance().histogram(
          "sqldb.statement.total_micros");
  statements.record(total_us);
  // Execute is whatever the explicitly timed phases don't account for.
  const std::uint64_t attributed =
      std::accumulate(micros_.begin(), micros_.end(), std::uint64_t{0});
  micros_[static_cast<std::size_t>(telemetry::Phase::kExecute)] =
      total_us > attributed ? total_us - attributed : 0;

  if (traced_) {
    constexpr std::size_t kNameMax = 120;
    std::string name(sql_.substr(0, kNameMax));
    if (sql_.size() > kNameMax) name += "...";
    telemetry::trace_emit(std::move(name), "statement", start_, end,
                          parent_id_, trace_id_);
  }

  const bool killed = std::strcmp(outcome_, "completed") != 0;
  const bool slow = threshold_us_ >= 0 &&
                    total_us >= static_cast<std::uint64_t>(threshold_us_);
  if (!killed && !slow && !forced_) return;
  telemetry::QueryTrace trace;
  trace.started_at = util::iso8601(std::chrono::system_clock::now() -
                                   std::chrono::microseconds(total_us));
  trace.thread = *thread_;
  trace.sql = std::string(sql_);
  std::string flat;  // the plan on one log line
  for (const auto& step : plan) {
    trace.plan += (trace.plan.empty() ? "" : "\n") + step;
    flat += (flat.empty() ? "" : ";") + step;
  }
  trace.total_ms = static_cast<double>(total_us) / 1000.0;
  trace.outcome = outcome_;
  for (std::size_t i = 0; i < telemetry::kPhaseCount; ++i) {
    trace.phase_ms[i] = static_cast<double>(micros_[i]) / 1000.0;
  }
  // A force-kept trace (EXPLAIN ANALYZE) that completed under the
  // threshold is deliberate instrumentation, not an incident: no warning.
  if (killed || slow) {
    using telemetry::format_ms;
    std::string line = (killed ? "query " + trace.outcome : "slow query") +
                       " (" + format_ms(trace.total_ms) + " ms";
    if (!killed) line += " >= " + format_ms(threshold_us_ / 1000.0) + " ms";
    line += "): " + trace.sql + " |";
    for (std::size_t i = 0; i < telemetry::kPhaseCount; ++i) {
      line += std::string(" ") +
              telemetry::phase_name(static_cast<telemetry::Phase>(i)) + '=' +
              format_ms(trace.phase_ms[i]) + "ms";
    }
    if (!flat.empty()) line += " | plan: " + flat;
    util::log_message(util::LogLevel::kWarn, line);
  }
  telemetry::TraceRing::instance().push(std::move(trace));
}

PhaseScope::PhaseScope(telemetry::Phase phase, StatementRecord* record,
                       telemetry::Histogram* histogram)
    : record_(record),
      histogram_(telemetry::enabled() ? histogram : nullptr),
      phase_(phase) {
  if (record_ != nullptr) {
    prev_ = record_->phase_.exchange(phase, std::memory_order_relaxed);
    attribute_ = prev_ != phase && record_->timed();
  }
  if (attribute_ || histogram_ != nullptr) start_ = StatementRecord::Clock::now();
}

PhaseScope::~PhaseScope() {
  if (record_ != nullptr) record_->phase_.store(prev_, std::memory_order_relaxed);
  if (!attribute_ && histogram_ == nullptr) return;
  const auto end = StatementRecord::Clock::now();
  const std::uint64_t micros = micros_between(start_, end);
  if (histogram_ != nullptr) histogram_->record(micros);
  if (!attribute_) return;
  record_->micros_[static_cast<std::size_t>(phase_)] += micros;
  if (record_->traced_) {
    telemetry::trace_emit(telemetry::phase_name(phase_), "phase", start_, end,
                          record_->trace_id_);
  }
}

}  // namespace perfdmf::sqldb
