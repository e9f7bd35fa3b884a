// The database: catalog of tables, DML with transactions, WAL-backed
// durability, and snapshot persistence. This is the substrate standing in
// for the external RDBMS (PostgreSQL / MySQL / Oracle / DB2) the paper's
// Java implementation connects to.
//
// Concurrency: Database is externally synchronized through its
// LockManager — the Connection layer classifies each statement and takes
// the drain lock shared (SELECT), the writer mutex (DML/transactions) or
// both exclusively (DDL/checkpoint) — and internally versioned: every
// mutation installs MVCC row versions stamped with a CommitStamp, and
// every statement resolves them against the ReadView it snapshotted at
// start. Readers therefore run in parallel with the writer without
// blocking it (the shared-repository deployment of the paper's
// PerfExplorer back end).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sqldb/ast.h"
#include "sqldb/durability.h"
#include "sqldb/executor.h"
#include "sqldb/governor.h"
#include "sqldb/lock_manager.h"
#include "sqldb/statement_record.h"
#include "sqldb/table.h"

namespace perfdmf::sqldb {

class Wal;

class Database {
 public:
  /// In-memory database (no durability).
  Database();
  /// File-backed: `directory` holds snapshot + WAL. Created if missing;
  /// existing state is recovered (newest snapshot — falling back to the
  /// previous one when the newest is corrupt — then WAL replay above the
  /// snapshot's watermark). What recovery found is in recovery_report().
  /// Sync policy defaults to DurabilityOptions::from_env().
  explicit Database(const std::filesystem::path& directory);
  Database(const std::filesystem::path& directory,
           const DurabilityOptions& options);
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ----- statement execution ------------------------------------------
  /// Parse and execute one statement. For SELECT, returns rows; for DML,
  /// a one-cell result holding the affected-row count.
  ResultSetData execute(std::string_view sql, const Params& params = {});

  /// Execute a pre-parsed statement (prepared-statement path).
  ResultSetData execute(Statement& stmt, const Params& params,
                        std::string_view original_sql);

  // ----- catalog --------------------------------------------------------
  bool has_table(std::string_view name) const;
  Table& table(std::string_view name);
  const Table& table(std::string_view name) const;
  /// Table names in creation order (DatabaseMetaData reflection).
  std::vector<std::string> table_names() const;

  // ----- views ----------------------------------------------------------
  bool has_view(std::string_view name) const;
  /// The stored SELECT text of a view (throws for unknown views).
  const std::string& view_sql(std::string_view name) const;
  std::vector<std::string> view_names() const;

  // ----- transactions ---------------------------------------------------
  void begin();
  void commit();
  void rollback();
  bool in_transaction() const { return in_txn_; }

  /// Flush a snapshot and truncate the WAL (file-backed databases only).
  /// Atomic: the snapshot is written to a temp file, fsynced, and renamed
  /// over the old one (which is kept as snapshot.pdb.prev); a crash at
  /// any point leaves a recoverable store.
  void checkpoint();

  bool is_persistent() const { return wal_ != nullptr; }

  /// What opening this database's files found and did. Empty (clean)
  /// for in-memory databases. Immutable after construction.
  const RecoveryReport& recovery_report() const { return report_; }

  // ----- MVCC snapshots -------------------------------------------------
  /// The snapshot the calling thread should read through: the view its
  /// current statement pinned at start (nested execution — view
  /// expansion, INSERT..SELECT — inherits it), else a fresh view of
  /// everything committed so far, carrying the thread's write-unit token
  /// when it owns one so a writer sees its own pending versions.
  ReadView read_view() const;

  /// Newest published commit timestamp (tests and telemetry).
  std::uint64_t commit_ts() const {
    return commit_ts_.load(std::memory_order_acquire);
  }

  /// Group-commit hand-off: if the thread's last statement deferred its
  /// WAL fsync (see Wal::wait_durable), block until it is durable. Called
  /// by the Connection AFTER releasing the statement's locks, so many
  /// committers can queue behind one leader fsync. ENOSPC degrades the
  /// database to read-only exactly like an inline sync failure.
  void await_durability(StatementRecord& record);

  /// Reader-writer lock coordinating every Connection over this database.
  /// The Database itself never locks (recursive execution — view
  /// expansion, WAL replay — must not self-deadlock); callers hold the
  /// appropriate lock around execute()/begin()/commit()/checkpoint().
  LockManager& locks() { return locks_; }

  /// Monotonic counter bumped by every DDL statement (CREATE/DROP
  /// TABLE/VIEW/INDEX, ALTER). Connections key their plan caches on it:
  /// a cached statement parsed under an older epoch is re-parsed, so DDL
  /// invalidates every connection's cache without coordination.
  std::uint64_t schema_epoch() const {
    return schema_epoch_.load(std::memory_order_acquire);
  }

  /// Executor strategy switches (see ExecutorTuning). Not synchronized:
  /// toggle only while no query is in flight (tests/benches).
  ExecutorTuning executor_tuning() const { return tuning_; }
  void set_executor_tuning(const ExecutorTuning& tuning) { tuning_ = tuning; }

  // ----- resource governance -------------------------------------------
  /// Admission control for top-level statement units. Disabled unless
  /// configured (PERFDMF_MAX_CONCURRENT_STMTS or governor().configure()).
  AdmissionGovernor& governor() { return governor_; }

  /// Degraded read-only mode. Entered when WAL appends or checkpoints
  /// keep failing with ENOSPC after bounded retries: SELECTs continue,
  /// writes fail fast with DbError{kReadOnly}. Left automatically — a
  /// rate-limited space probe runs on each rejected write — or
  /// explicitly via try_exit_read_only().
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }
  /// Why the database degraded (empty when healthy).
  std::string read_only_reason() const;
  /// Probe for recovered disk space; on success writes are re-enabled.
  /// Returns the post-probe writability. Callers must hold the
  /// exclusive lock (or be single-threaded) like any write.
  bool try_exit_read_only();

  /// The admission slot held by the active transaction's unit. Stored on
  /// the database (not the Connection) because the lock manager lets the
  /// owning thread finish a transaction through any connection. Both are
  /// touched only while holding the exclusive lock.
  void adopt_txn_admission(AdmissionSlot slot) {
    const bool held = slot.held();
    txn_admission_ = std::move(slot);
    txn_intro_.admission_held.store(held, std::memory_order_relaxed);
  }
  void release_txn_admission() {
    txn_admission_.release();
    txn_intro_.admission_held.store(false, std::memory_order_relaxed);
  }

  // ----- introspection --------------------------------------------------
  /// Live registry of currently executing statements (PERFDMF_STATEMENTS).
  StatementRegistry& statements() { return stmt_registry_; }

  /// The WAL, or nullptr for in-memory databases (PERFDMF_WAL).
  Wal* wal() { return wal_.get(); }

  /// Lock-free mirror of the open transaction's state, maintained by the
  /// txn owner (under the writer mutex) and read by the PERFDMF_TRANSACTIONS
  /// materializer from any thread. The mirror exists precisely so
  /// introspection never reads the non-atomic txn fields (in_txn_,
  /// txn_stamps_, ...) the writer mutates.
  struct TxnIntrospection {
    std::atomic<bool> open{false};
    std::atomic<bool> admission_held{false};
    std::atomic<std::uint64_t> token{0};
    std::atomic<std::uint64_t> read_ts{0};      // commit_ts at BEGIN
    std::atomic<std::uint64_t> statements{0};   // DML statements so far
    // mvcc.versions_installed at BEGIN. The open txn holds the writer
    // mutex, so the counter's growth since BEGIN is exactly this txn's
    // installed versions.
    std::atomic<std::uint64_t> versions_base{0};
    std::atomic<std::int64_t> started_unix_ms{0};
  };
  const TxnIntrospection& txn_introspection() const { return txn_intro_; }

 private:
  friend ResultSetData execute_select(Database&, SelectStatement&, const Params&,
                                      StatementRecord*);

  /// RAII around one DML statement's writes: owns the CommitStamp every
  /// version the statement installs is tagged with. succeed() publishes
  /// it (autocommit) or hands it to the open transaction; destruction
  /// without succeed() aborts it, making the statement's versions
  /// invisible garbage — the MVCC replacement for the old undo log.
  class WriteUnit;

  ResultSetData execute_parsed(Statement& stmt, const Params& params,
                               std::string_view sql);
  ResultSetData dispatch_statement(Statement& stmt, const Params& params,
                                   std::string_view sql);
  std::size_t run_insert(InsertStatement& stmt, const Params& params,
                         CommitStamp* stamp, const ReadView& view);
  std::size_t run_update(UpdateStatement& stmt, const Params& params,
                         CommitStamp* stamp, const ReadView& view);
  std::size_t run_delete(DeleteStatement& stmt, const Params& params,
                         CommitStamp* stamp, const ReadView& view);
  void run_create_table(const CreateTableStatement& stmt);
  void run_drop_table(const DropTableStatement& stmt);
  void run_create_index(const CreateIndexStatement& stmt);
  void run_create_view(const CreateViewStatement& stmt);
  void run_drop_view(const DropViewStatement& stmt);

  void check_foreign_keys_insert(const Table& table, const Row& row,
                                 const ReadView& view);
  void check_foreign_keys_delete(const Table& table, const Row& row,
                                 const ReadView& view);

  /// Reject writes while degraded (after attempting a rate-limited
  /// recovery probe); no-op when healthy or replaying.
  void ensure_writable();
  /// Flip into degraded read-only mode (idempotent; logs + counts).
  void enter_read_only(const std::string& reason);
  /// Run `fn` (a WAL write or checkpoint step); ENOSPC failures are
  /// retried with bounded exponential backoff, then degrade the
  /// database and surface as DbError{kReadOnly}. Other IoErrors pass
  /// through untouched (crash-harness semantics preserved).
  template <typename Fn>
  void governed_durable_write(Fn&& fn, const char* what);

  void log_statement(std::string_view sql, const Params& params);
  /// WAL-log a schema change immediately, bypassing the transaction
  /// buffer (DDL is not undone by rollback, so it must not be lost with
  /// a rolled-back batch).
  void log_ddl(std::string_view sql, const Params& params);

  /// The calling thread's write-unit token (non-zero only for the thread
  /// that owns the active write unit or transaction).
  std::uint64_t self_token() const;
  /// Stamp every pending txn stamp with one fresh commit timestamp and
  /// advance the global counter — the atomic commit point.
  void publish_txn_stamps();
  void abort_txn_stamps();
  /// Mark a stamp aborted and revert its optimistic live-count delta.
  void abort_stamp(CommitStamp* stamp);
  void clear_writer();

  /// Serialize the full store. `watermark` is the highest WAL sequence
  /// number the snapshot subsumes; recovery skips replaying records at
  /// or below it. A trailing "SUM <crc32>" line seals the content.
  std::string render_snapshot(std::uint64_t watermark) const;
  /// Load a snapshot; returns its watermark. Throws ParseError on a bad
  /// checksum or frame; the catalog may be partially populated on throw
  /// (the constructor clears it before falling back).
  std::uint64_t load_snapshot(const std::filesystem::path& path);
  void clear_catalog();

  std::map<std::string, std::unique_ptr<Table>> tables_;  // key: lower name
  std::vector<std::string> table_order_;                  // original names
  std::map<std::string, std::string> views_;              // lower name -> SELECT
  std::vector<std::string> view_order_;

  bool in_txn_ = false;
  std::vector<std::pair<std::string, Params>> txn_wal_buffer_;

  // MVCC state. commit_ts_ is the database-global commit timestamp
  // counter: readers snapshot it lock-free, and only the single write
  // unit (serialized by the writer mutex) advances it. Stamps live in
  // the graveyard until checkpoint GC frees them (vacuum() folds every
  // resolved stamp into the version caches first, so no dangling
  // pointers remain).
  std::atomic<std::uint64_t> commit_ts_{0};
  std::atomic<std::uint64_t> next_token_{1};
  std::uint64_t writer_token_ = 0;  // guarded by the writer mutex
  std::atomic<std::thread::id> writer_thread_{};
  std::vector<CommitStamp*> txn_stamps_;  // pending, in statement order
  std::vector<std::unique_ptr<CommitStamp>> stamp_graveyard_;

  std::unique_ptr<Wal> wal_;
  std::filesystem::path directory_;
  bool replaying_ = false;  // suppress WAL writes during recovery
  RecoveryReport report_;

  void note_schema_change() {
    schema_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  std::atomic<std::uint64_t> schema_epoch_{0};
  ExecutorTuning tuning_;

  LockManager locks_;

  AdmissionGovernor governor_{AdmissionGovernor::config_from_env()};
  AdmissionSlot txn_admission_;
  StatementRegistry stmt_registry_;
  TxnIntrospection txn_intro_;
  std::atomic<bool> read_only_{false};
  mutable std::mutex read_only_mutex_;  // guards read_only_reason_
  std::string read_only_reason_;
  std::atomic<std::int64_t> last_probe_ms_{0};
};

}  // namespace perfdmf::sqldb
