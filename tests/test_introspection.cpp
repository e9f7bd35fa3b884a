// Introspection: EXPLAIN ANALYZE operator stats, the live system tables
// (PERFDMF_STATEMENTS / PERFDMF_TRANSACTIONS / PERFDMF_LOCKS /
// PERFDMF_WAL), phase attribution for admission, lock and fsync waits,
// and the JSON / Chrome-trace exports.
//
// The contract under test (DESIGN.md "Observability"):
//
//   - EXPLAIN ANALYZE's operator chain is self-consistent: each
//     operator's rows_in equals the preceding operator's rows_out, and
//     the operator times are disjoint intervals (their sum is bounded by
//     the statement total);
//   - the live tables answer SELECTs mid-workload without ever blocking
//     the statements they report on (they read atomics and per-slot
//     try-locks only), so they are safe to hammer from reader threads
//     while writers run DML/DDL — this file carries the TSan-swept
//     churn test;
//   - every export (metrics_to_json, traces_to_json,
//     traces_to_chrome_json) emits valid JSON even for SQL text full of
//     quotes, backslashes and newlines.
//
// EXPLAIN ANALYZE and the live tables are independent of the telemetry
// kill switch: operator stats come from direct steady-clock reads and
// the registry/lock/WAL state is plain engine state, so everything here
// runs under -DPERFDMF_TELEMETRY=OFF too (ring/trace assertions are
// gated on telemetry::compiled_in()).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "sqldb/connection.h"
#include "sqldb/database.h"
#include "sqldb/system_tables.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/file.h"
#include "util/json.h"

using namespace perfdmf::sqldb;
using perfdmf::DbError;
namespace telemetry = perfdmf::telemetry;
namespace json = perfdmf::util::json;
namespace fp = perfdmf::util::failpoint;

namespace {

// One "analyze <label>: rows_in=N rows_out=N time_us=N ..." plan row.
struct OpLine {
  std::string label;
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t time_us = 0;
  bool degraded = false;
};

std::vector<OpLine> run_analyze(Connection& conn, const std::string& sql) {
  auto rs = conn.execute(sql);
  std::vector<OpLine> ops;
  while (rs.next()) {
    const std::string line = rs.get_string(1);
    if (line.rfind("analyze ", 0) != 0) continue;
    OpLine op;
    op.label = line.substr(8, line.find(':') - 8);
    auto field = [&](const char* key) -> std::uint64_t {
      const auto pos = line.find(std::string(key) + "=");
      if (pos == std::string::npos) return 0;
      return std::strtoull(line.c_str() + pos + std::strlen(key) + 1, nullptr,
                           10);
    };
    op.rows_in = field("rows_in");
    op.rows_out = field("rows_out");
    op.time_us = field("time_us");
    op.degraded = line.find(" degraded") != std::string::npos;
    ops.push_back(std::move(op));
  }
  return ops;
}

void expect_chained(const std::vector<OpLine>& ops) {
  for (std::size_t i = 1; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].rows_in, ops[i - 1].rows_out)
        << ops[i].label << " rows_in vs " << ops[i - 1].label << " rows_out";
  }
}

bool has_op(const std::vector<OpLine>& ops, const std::string& prefix) {
  for (const auto& op : ops) {
    if (op.label.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

class ExplainAnalyze : public ::testing::Test {
 protected:
  void SetUp() override {
    conn.execute_update(
        "CREATE TABLE dept (id INTEGER PRIMARY KEY, name VARCHAR)");
    conn.execute_update(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, dept_id INTEGER, "
        "salary DOUBLE)");
    conn.begin();
    for (int d = 0; d < 5; ++d) {
      conn.execute_update("INSERT INTO dept (id, name) VALUES (" +
                          std::to_string(d) + ", 'dept" + std::to_string(d) +
                          "')");
    }
    auto stmt =
        conn.prepare("INSERT INTO emp (dept_id, salary) VALUES (?, ?)");
    for (int i = 0; i < 200; ++i) {
      stmt.set_int(1, i % 5);
      stmt.set_double(2, i * 1.5);
      stmt.execute_update();
    }
    conn.commit();
  }

  Connection conn;
};

TEST_F(ExplainAnalyze, JoinGroupByChainIsConsistent) {
  const auto ops = run_analyze(
      conn,
      "EXPLAIN ANALYZE SELECT d.name, COUNT(*) FROM emp e "
      "JOIN dept d ON e.dept_id = d.id WHERE e.salary >= 0 GROUP BY d.name");
  ASSERT_GE(ops.size(), 4u);
  EXPECT_TRUE(has_op(ops, "from e"));
  EXPECT_TRUE(has_op(ops, "join d"));
  EXPECT_TRUE(has_op(ops, "filter"));
  EXPECT_TRUE(has_op(ops, "group-by"));
  expect_chained(ops);
  // 200 emp rows all match a dept and pass the filter; 5 groups out.
  EXPECT_EQ(ops.front().rows_out, 200u);
  EXPECT_EQ(ops.back().rows_out, 5u);
}

TEST_F(ExplainAnalyze, TopKChainIsConsistent) {
  const auto ops = run_analyze(
      conn,
      "EXPLAIN ANALYZE SELECT id, salary FROM emp ORDER BY salary DESC "
      "LIMIT 7");
  ASSERT_GE(ops.size(), 4u);
  EXPECT_TRUE(has_op(ops, "from emp"));
  EXPECT_TRUE(has_op(ops, "project"));
  EXPECT_TRUE(has_op(ops, "order-by"));
  EXPECT_TRUE(has_op(ops, "limit"));
  expect_chained(ops);
  // Top-K retains at most LIMIT rows through the sort.
  EXPECT_EQ(ops.back().rows_out, 7u);
}

TEST_F(ExplainAnalyze, DegradedPlansStayConsistentAndAreFlagged) {
  conn.set_statement_mem_bytes(512);  // far below the hash estimates
  const auto ops = run_analyze(
      conn,
      "EXPLAIN ANALYZE SELECT d.name, COUNT(*) FROM emp e "
      "JOIN dept d ON e.dept_id = d.id GROUP BY d.name");
  conn.set_statement_mem_bytes(0);
  ASSERT_GE(ops.size(), 3u);
  expect_chained(ops);
  bool any_degraded = false;
  for (const auto& op : ops) any_degraded |= op.degraded;
  EXPECT_TRUE(any_degraded) << "512-byte budget should degrade an operator";
  // The degraded fallback still produces the same row flow.
  EXPECT_EQ(ops.back().rows_out, 5u);
}

TEST_F(ExplainAnalyze, OperatorMicrosSumWithinRingTotal) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  auto& ring = telemetry::TraceRing::instance();
  ring.clear();
  const std::string sql =
      "EXPLAIN ANALYZE SELECT dept_id, SUM(salary) FROM emp "
      "GROUP BY dept_id ORDER BY 2 DESC LIMIT 3";
  const auto ops = run_analyze(conn, sql);
  ASSERT_GE(ops.size(), 3u);
  // force_trace() pinned the run into the ring, with the annotated plan.
  const auto traces = ring.snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].sql, sql);
  EXPECT_NE(traces[0].plan.find("analyze "), std::string::npos);
  std::uint64_t op_sum_us = 0;
  for (const auto& op : ops) op_sum_us += op.time_us;
  EXPECT_LE(static_cast<double>(op_sum_us) / 1000.0, traces[0].total_ms + 1e-6);
}

TEST_F(ExplainAnalyze, PlainExplainCarriesNoAnalyzeRows) {
  auto rs = conn.execute("EXPLAIN SELECT id FROM emp WHERE dept_id = 1");
  while (rs.next()) {
    EXPECT_NE(rs.get_string(1).rfind("analyze ", 0), 0u);
  }
}

// ----------------------------------------------------------- live tables

class LiveTables : public ::testing::Test {
 protected:
  void SetUp() override {
    shared = std::make_shared<Database>();
    conn = std::make_unique<Connection>(shared);
    conn->execute_update(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
    conn->execute_update("INSERT INTO t (v) VALUES (1)");
  }

  std::shared_ptr<Database> shared;
  std::unique_ptr<Connection> conn;
};

TEST_F(LiveTables, StatementsTableListsTheObservingStatement) {
  auto rs = conn->execute(
      "SELECT sql, phase, elapsed_ms FROM PERFDMF_STATEMENTS");
  ASSERT_GE(rs.row_count(), 1u);
  bool found_self = false;
  while (rs.next()) {
    if (rs.get_string(1).find("PERFDMF_STATEMENTS") != std::string::npos) {
      found_self = true;
      EXPECT_STREQ(rs.get_string(2).c_str(), "execute");
      EXPECT_GE(rs.get_double(3), 0.0);
    }
  }
  EXPECT_TRUE(found_self) << "the SELECT itself should be registered";
}

TEST_F(LiveTables, LocksTableShowsTheDrainHoldOfTheObserver) {
  auto rs = conn->execute(
      "SELECT lock, holders, exclusive, waiters, wait_micros "
      "FROM PERFDMF_LOCKS ORDER BY lock");
  ASSERT_EQ(rs.row_count(), 2u);
  ASSERT_TRUE(rs.next());
  EXPECT_EQ(rs.get_string(1), "drain");
  // The observing SELECT itself holds the drain lock shared.
  EXPECT_GE(rs.get_int(2), 1);
  EXPECT_EQ(rs.get_int(3), 0);
  ASSERT_TRUE(rs.next());
  EXPECT_EQ(rs.get_string(1), "writer");
  EXPECT_EQ(rs.get_int(2), 0);
}

TEST_F(LiveTables, WalTableIsZerosForInMemoryDatabases) {
  auto rs = conn->execute(
      "SELECT written_seq, durable_seq, commit_queue_depth, sync_mode, "
      "read_only FROM PERFDMF_WAL");
  ASSERT_EQ(rs.row_count(), 1u);
  rs.next();
  EXPECT_GE(rs.get_int(1), rs.get_int(2));  // written >= durable, always
  EXPECT_EQ(rs.get_int(3), 0);
  EXPECT_EQ(rs.get_string(4), "none");
  EXPECT_EQ(rs.get_int(5), 0);
}

TEST_F(LiveTables, TransactionsTableTracksTheOpenTransaction) {
  {
    auto rs = conn->execute("SELECT * FROM PERFDMF_TRANSACTIONS");
    EXPECT_EQ(rs.row_count(), 0u);  // nothing open
  }
  conn->begin();
  conn->execute_update("INSERT INTO t (v) VALUES (2)");
  conn->execute_update("INSERT INTO t (v) VALUES (3)");
  {
    // Observed from a second connection while the txn is open.
    Connection observer(shared);
    auto rs = observer.execute(
        "SELECT state, statements, versions_installed, admission_held, "
        "elapsed_ms FROM PERFDMF_TRANSACTIONS");
    ASSERT_EQ(rs.row_count(), 1u);
    rs.next();
    EXPECT_EQ(rs.get_string(1), "open");
    EXPECT_GE(rs.get_int(2), 2);
    if (telemetry::compiled_in()) {
      EXPECT_GE(rs.get_int(3), 2);  // two INSERTs installed two versions
    } else {
      EXPECT_EQ(rs.get_int(3), 0);  // counters frozen: zeros, not garbage
    }
    EXPECT_GE(rs.get_double(5), 0.0);
  }
  conn->commit();
  auto rs = conn->execute("SELECT * FROM PERFDMF_TRANSACTIONS");
  EXPECT_EQ(rs.row_count(), 0u);
}

TEST_F(LiveTables, SystemTablesRejectWrites) {
  EXPECT_THROW(conn->execute_update("INSERT INTO PERFDMF_WAL (written_seq) "
                                    "VALUES (1)"),
               DbError);
  EXPECT_THROW(conn->execute_update("DROP TABLE PERFDMF_STATEMENTS"), DbError);
}

// Reader threads hammer the live tables while writer threads churn DML
// and DDL. The live tables must stay queryable (no deadlock, no blocked
// writers) and every row internally consistent. Runs under TSan via the
// concurrency label.
TEST_F(LiveTables, ChurnReadersNeverBlockWriters) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kWriterIters = 60;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      try {
        Connection c(shared);
        for (int i = 0; i < kWriterIters; ++i) {
          c.execute_update("INSERT INTO t (v) VALUES (" + std::to_string(i) +
                           ")");
          c.execute_update("UPDATE t SET v = v + 1 WHERE v = " +
                           std::to_string(i));
          if (i % 20 == 0) {
            const std::string name =
                "churn_" + std::to_string(w) + "_" + std::to_string(i);
            c.execute_update("CREATE TABLE " + name + " (id INTEGER)");
            c.execute_update("DROP TABLE " + name);
          }
        }
      } catch (...) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      try {
        Connection c(shared);
        while (!stop.load(std::memory_order_relaxed)) {
          auto st = c.execute("SELECT id, phase, rows FROM PERFDMF_STATEMENTS");
          while (st.next()) {
            EXPECT_GT(st.get_int(1), 0);
            EXPECT_FALSE(st.get_string(2).empty());
          }
          auto locks = c.execute(
              "SELECT holders, waiters FROM PERFDMF_LOCKS WHERE lock = "
              "'drain'");
          ASSERT_EQ(locks.row_count(), 1u);
          locks.next();
          EXPECT_GE(locks.get_int(1), 1);  // at least this reader
          auto wal = c.execute(
              "SELECT written_seq, durable_seq FROM PERFDMF_WAL");
          ASSERT_EQ(wal.row_count(), 1u);
          wal.next();
          EXPECT_GE(wal.get_int(1), wal.get_int(2));
          c.execute("SELECT * FROM PERFDMF_TRANSACTIONS");
        }
      } catch (...) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // All writers finished: 4 * 60 inserts + the seed row survived.
  auto rs = conn->execute("SELECT COUNT(*) FROM t");
  rs.next();
  EXPECT_EQ(rs.get_int(1), kWriters * kWriterIters + 1);
}

// ------------------------------------------------- admission attribution

TEST(AdmissionPhase, WaitIsAttributedToAdmissionNotExecute) {
  auto shared = std::make_shared<Database>();
  Connection writer(shared);
  writer.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  writer.execute_update("INSERT INTO t (v) VALUES (1)");
  shared->governor().configure({/*max_concurrent=*/1, /*max_queue=*/8,
                                /*queue_timeout_ms=*/10000});

  const double saved = telemetry::slow_query_threshold_ms();
  telemetry::set_slow_query_threshold_ms(0.0);  // every statement is "slow"
  auto& ring = telemetry::TraceRing::instance();
  ring.clear();

  writer.begin();  // the transaction unit holds the only admission slot
  std::thread queued([&] {
    Connection c(shared);
    c.execute("SELECT COUNT(*) FROM t");
  });
  // The queued statement shows up in PERFDMF_STATEMENTS with the
  // "admission" phase label while it waits (polled: registration and the
  // label store race with this loop, but the wait lasts until commit).
  bool seen_admission = false;
  for (int i = 0; i < 2000 && !seen_admission; ++i) {
    auto rs = writer.execute(
        "SELECT COUNT(*) FROM PERFDMF_STATEMENTS WHERE phase = 'admission'");
    rs.next();
    seen_admission = rs.get_int(1) >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(seen_admission);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  writer.commit();
  queued.join();

  if (telemetry::compiled_in()) {
    double admission_ms = -1.0;
    for (const auto& t : ring.snapshot()) {
      if (t.sql.find("COUNT(*) FROM t") != std::string::npos) {
        admission_ms = t.phase_ms[static_cast<std::size_t>(
            telemetry::Phase::kAdmission)];
      }
    }
    EXPECT_GT(admission_ms, 0.0)
        << "queued wait must land in the admission phase";
  }
  telemetry::set_slow_query_threshold_ms(saved);
  shared->governor().configure({0, 0, 0});  // disable again
}

/// Polls PERFDMF_STATEMENTS from `observer` until some statement shows
/// `phase` (registration and the phase store race with the poll, but
/// every caller's wait outlasts it).
bool poll_for_phase(Connection& observer, const std::string& phase) {
  for (int i = 0; i < 2000; ++i) {
    auto rs = observer.execute(
        "SELECT COUNT(*) FROM PERFDMF_STATEMENTS WHERE phase = '" + phase +
        "'");
    rs.next();
    if (rs.get_int(1) >= 1) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// The slow-query trace of the statement whose SQL contains `needle`
/// (the newest one), or nullptr.
const telemetry::QueryTrace* find_trace(
    const std::vector<telemetry::QueryTrace>& traces, const std::string& needle) {
  const telemetry::QueryTrace* found = nullptr;
  for (const auto& t : traces) {
    if (t.sql.find(needle) != std::string::npos) found = &t;
  }
  return found;
}

double phase_ms(const telemetry::QueryTrace& trace, telemetry::Phase phase) {
  return trace.phase_ms[static_cast<std::size_t>(phase)];
}

TEST(LockWaitPhase, WriterMutexWaitIsAttributedToLockWait) {
  auto shared = std::make_shared<Database>();
  Connection holder(shared);
  holder.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");

  const double saved = telemetry::slow_query_threshold_ms();
  telemetry::set_slow_query_threshold_ms(0.0);  // every statement is "slow"
  telemetry::TraceRing::instance().clear();

  holder.begin();  // holds the writer mutex until commit
  std::thread blocked([&] {
    Connection c(shared);
    c.execute_update("INSERT INTO t (v) VALUES (7)");
  });
  // The holder's own SELECTs pass through its transaction's lock.
  EXPECT_TRUE(poll_for_phase(holder, "lock_wait"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  holder.commit();
  blocked.join();

  if (telemetry::compiled_in()) {
    const auto traces = telemetry::TraceRing::instance().snapshot();
    const telemetry::QueryTrace* insert = find_trace(traces, "VALUES (7)");
    ASSERT_NE(insert, nullptr);
    EXPECT_GT(phase_ms(*insert, telemetry::Phase::kLockWait), 0.0)
        << "the writer-mutex wait must land in the lock_wait phase";
  }
  telemetry::set_slow_query_threshold_ms(saved);
}

TEST(FsyncPhase, DurabilityWaitIsAttributedToFsync) {
  perfdmf::util::ScopedTempDir dir;
  DurabilityOptions options;
  options.sync = SyncMode::kAlways;
  auto shared = std::make_shared<Database>(dir.path() / "db", options);
  Connection observer(shared);
  observer.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");

  const double saved = telemetry::slow_query_threshold_ms();
  telemetry::set_slow_query_threshold_ms(0.0);
  telemetry::TraceRing::instance().clear();

  // Every fsync from here on is held for kDelayMs, the INSERT's included.
  constexpr int kDelayMs = 60;
  fp::enable_every("wal.sync", perfdmf::util::FailAction::kDelay, 1, kDelayMs);
  std::thread committing([&] {
    Connection c(shared);
    c.execute_update("INSERT INTO t (v) VALUES (8)");
  });
  EXPECT_TRUE(poll_for_phase(observer, "fsync"));
  committing.join();
  fp::disable("wal.sync");

  if (telemetry::compiled_in()) {
    const auto traces = telemetry::TraceRing::instance().snapshot();
    const telemetry::QueryTrace* insert = find_trace(traces, "VALUES (8)");
    ASSERT_NE(insert, nullptr);
    EXPECT_GE(phase_ms(*insert, telemetry::Phase::kFsync), kDelayMs)
        << "the delayed commit fsync must land in the fsync phase";
  }
  telemetry::set_slow_query_threshold_ms(saved);
}

TEST(FsyncPhase, ApiCommitWaitIsAttributedToFsync) {
  perfdmf::util::ScopedTempDir dir;
  auto shared = std::make_shared<Database>(dir.path() / "db", DurabilityOptions{});
  Connection observer(shared);
  observer.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");

  const double saved = telemetry::slow_query_threshold_ms();
  telemetry::set_slow_query_threshold_ms(0.0);
  telemetry::TraceRing::instance().clear();

  // Under SyncMode::kOnCommit only the commit syncs; hold its fsync.
  constexpr int kDelayMs = 60;
  fp::enable_every("wal.sync", perfdmf::util::FailAction::kDelay, 1, kDelayMs);
  std::thread committing([&] {
    Connection c(shared);
    c.begin();
    c.execute_update("INSERT INTO t (v) VALUES (9)");
    c.commit();
  });
  EXPECT_TRUE(poll_for_phase(observer, "fsync"));
  committing.join();
  fp::disable("wal.sync");

  if (telemetry::compiled_in()) {
    const auto traces = telemetry::TraceRing::instance().snapshot();
    const telemetry::QueryTrace* commit = find_trace(traces, "COMMIT");
    ASSERT_NE(commit, nullptr);
    EXPECT_GE(phase_ms(*commit, telemetry::Phase::kFsync), kDelayMs)
        << "the API commit's fsync must land in its fsync phase";
  }
  telemetry::set_slow_query_threshold_ms(saved);
}

/// Ten begin / INSERT / commit units, through the Connection API or as
/// SQL text; returns how far they moved wal.group_commit.commits.
std::uint64_t group_commits_of_ten_units(Connection& conn, bool api) {
  auto& commits =
      telemetry::MetricsRegistry::instance().counter("wal.group_commit.commits");
  const std::uint64_t before = commits.value();
  for (int i = 0; i < 10; ++i) {
    if (api) {
      conn.begin();
    } else {
      conn.execute_update("BEGIN");
    }
    conn.execute_update("INSERT INTO t (v) VALUES (" + std::to_string(i) + ")");
    if (api) {
      conn.commit();
    } else {
      conn.execute_update("COMMIT");
    }
  }
  return commits.value() - before;
}

TEST(GroupCommit, ApiCommitsJoinGroupCommitLikeSqlCommits) {
  perfdmf::util::ScopedTempDir dir;
  DurabilityOptions options;
  options.sync = SyncMode::kOnCommit;
  Connection conn(dir.path() / "db", options);
  conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  const std::uint64_t sql = group_commits_of_ten_units(conn, /*api=*/false);
  const std::uint64_t api = group_commits_of_ten_units(conn, /*api=*/true);
  if (telemetry::compiled_in()) {
    EXPECT_GE(sql, 10u);
    EXPECT_EQ(api, sql) << "API commits must wait for durability through "
                           "group commit, as SQL COMMITs do";
  }
  auto rs = conn.execute("SELECT COUNT(*) FROM t");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 20);
}

TEST(WalTable, FileBackedSeqsCatchUpAfterApiCommit) {
  perfdmf::util::ScopedTempDir dir;
  Connection conn(dir.path() / "db", DurabilityOptions{});
  conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  conn.begin();
  conn.execute_update("INSERT INTO t (v) VALUES (1)");
  conn.execute_update("INSERT INTO t (v) VALUES (2)");
  conn.commit();

  auto rs = conn.execute(
      "SELECT written_seq, durable_seq, commit_queue_depth, "
      "last_fsync_micros, sync_mode, read_only FROM PERFDMF_WAL");
  ASSERT_EQ(rs.row_count(), 1u);
  rs.next();
  EXPECT_GE(rs.get_int(1), 2);  // the CREATE TABLE and the commit batch
  EXPECT_EQ(rs.get_int(2), rs.get_int(1))
      << "the commit's fsync covers everything written before it";
  EXPECT_EQ(rs.get_int(3), 0);  // nobody is waiting for durability
  EXPECT_GE(rs.get_int(4), 0);
  EXPECT_LT(rs.get_int(4), 60'000'000);  // one fsync, well under a minute
  EXPECT_EQ(rs.get_string(5), "on_commit");
  EXPECT_EQ(rs.get_int(6), 0);
}

// ------------------------------------------------------------- exports

TEST(IntrospectionJson, ExportsSurviveHostileSqlText) {
  const double saved = telemetry::slow_query_threshold_ms();
  telemetry::set_slow_query_threshold_ms(0.0);
  const bool trace_was = telemetry::trace_enabled();
  telemetry::set_trace_enabled(true);
  telemetry::TraceRing::instance().clear();
  telemetry::TraceBuffer::instance().clear();

  Connection conn;
  conn.execute_update("CREATE TABLE h (id INTEGER PRIMARY KEY, s VARCHAR)");
  // Quotes, backslashes, newlines and a tab — everything the JSON
  // encoder must escape — embedded in the SQL text itself.
  const std::string hostile =
      "SELECT 'quote \" backslash \\ newline \n tab \t end' AS c1, s FROM h";
  conn.execute(hostile);
  conn.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM h");

  telemetry::set_trace_enabled(trace_was);
  telemetry::set_slow_query_threshold_ms(saved);

  // metrics_to_json: parses, and is an object of name -> sample.
  const json::Value metrics = json::parse(telemetry::metrics_to_json());
  ASSERT_TRUE(metrics.is_object());

  // traces_to_json: parses even with the hostile SQL in the ring; the
  // hostile text round-trips unmangled through the escaping.
  const json::Value traces = json::parse(telemetry::traces_to_json());
  const json::Value* list = traces.find("traces");
  ASSERT_NE(list, nullptr);
  if (telemetry::compiled_in()) {
    bool found = false;
    for (const auto& t : list->as_array()) {
      const json::Value* sql = t.find("sql");
      ASSERT_NE(sql, nullptr);
      if (sql->as_string() == hostile) found = true;
      ASSERT_NE(t.find("total_ms"), nullptr);
      ASSERT_NE(t.find("phases"), nullptr);
    }
    EXPECT_TRUE(found) << "hostile SQL must round-trip through the export";
  }

  // traces_to_chrome_json: valid Chrome trace-event JSON with the
  // required fields on every event.
  const json::Value chrome = json::parse(telemetry::traces_to_chrome_json());
  const json::Value* events = chrome.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  for (const auto& e : events->as_array()) {
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("cat"), nullptr);
    const json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->as_string(), "X");
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
  }
  if (telemetry::compiled_in()) {
    // The traced statements produced at least statement + phase events.
    EXPECT_GE(events->as_array().size(), 2u);
    bool statement_seen = false;
    for (const auto& e : events->as_array()) {
      if (e.find("cat")->as_string() == "statement") statement_seen = true;
    }
    EXPECT_TRUE(statement_seen);
  }
}

}  // namespace
