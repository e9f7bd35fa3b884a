// Admission control: a Database-level governor bounding the number of
// concurrently executing statements.
//
// Heavy traffic against one Database must degrade by queueing and
// shedding, not by piling an unbounded number of threads onto the lock
// manager. When configured (max_concurrent > 0), every top-level
// statement unit — a standalone statement, or a BEGIN..COMMIT
// transaction as a whole — acquires a slot before touching the database
// lock and releases it when the unit ends. Waiters form a bounded FIFO
// queue; a statement that would exceed the queue bound, or that waits
// longer than the queue timeout, is shed with DbError{kOverloaded} so
// the client can back off and retry. Waits are sliced so a queued
// statement still observes its own deadline (kTimeout) and cancel flag
// (kCancelled) promptly.
//
// Ordering discipline (deadlock freedom): admission is acquired strictly
// before the database lock and released strictly after it; statements
// running inside an already-admitted transaction bypass the governor.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "sqldb/statement_record.h"

namespace perfdmf::sqldb {

class AdmissionGovernor;

/// RAII admission slot. Empty when the governor is disabled (nothing to
/// release); movable so a Connection can hold one across a transaction.
class AdmissionSlot {
 public:
  AdmissionSlot() = default;
  explicit AdmissionSlot(AdmissionGovernor* gov) : gov_(gov) {}
  AdmissionSlot(AdmissionSlot&& other) noexcept : gov_(other.gov_) {
    other.gov_ = nullptr;
  }
  AdmissionSlot& operator=(AdmissionSlot&& other) noexcept {
    if (this != &other) {
      release();
      gov_ = other.gov_;
      other.gov_ = nullptr;
    }
    return *this;
  }
  ~AdmissionSlot() { release(); }

  void release();
  bool held() const { return gov_ != nullptr; }

 private:
  AdmissionGovernor* gov_ = nullptr;
};

class AdmissionGovernor {
 public:
  struct Config {
    int max_concurrent = 0;      // 0 = unlimited (governor disabled)
    int max_queue = 64;          // waiters beyond this are shed immediately
    int queue_timeout_ms = 1000; // longest a statement waits for a slot
  };

  /// PERFDMF_MAX_CONCURRENT_STMTS (0/unset = disabled), with optional
  /// PERFDMF_ADMISSION_QUEUE / PERFDMF_ADMISSION_QUEUE_MS overrides.
  static Config config_from_env();

  AdmissionGovernor() = default;
  explicit AdmissionGovernor(const Config& cfg) { configure(cfg); }
  AdmissionGovernor(const AdmissionGovernor&) = delete;
  AdmissionGovernor& operator=(const AdmissionGovernor&) = delete;

  void configure(const Config& cfg);
  Config config() const;
  bool limited() const { return limited_.load(std::memory_order_relaxed); }

  /// Acquire an execution slot (FIFO). Returns an empty slot when the
  /// governor is disabled. Throws DbError{kOverloaded} on queue-full or
  /// queue-timeout shedding; DbError{kTimeout|kCancelled} if the
  /// statement's own governance fires while queued.
  AdmissionSlot admit(StatementRecord* record);

  /// Statements currently holding slots (diagnostics/tests).
  int running() const;
  /// Statements currently queued (diagnostics/tests).
  int queued() const;

 private:
  friend class AdmissionSlot;
  void release();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Config cfg_;
  // Mirrors cfg_.max_concurrent > 0 so the disabled fast path is one
  // relaxed load, no mutex.
  std::atomic<bool> limited_{false};
  int running_ = 0;
  std::deque<std::uint64_t> queue_;  // FIFO of waiting ticket ids
  std::uint64_t next_ticket_ = 0;
};

}  // namespace perfdmf::sqldb
