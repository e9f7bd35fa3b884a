// Executor parity harness: every PerfExplorer-shaped query runs through
// the optimized paths (hash join, hash GROUP BY, Top-K LIMIT) and through
// the forced fallbacks (nested-loop / index-nested-loop joins, ordered-map
// grouping, full sort), and the results must be identical — including
// NULL join keys (NULL must never hash-match NULL) and duplicate-key
// joins. Queries without a total ORDER BY are compared as sorted
// multisets, since row order is not contractual there.
//
// The index-probe join tests compare the planner's index-nested-loop
// choice (small left side, right side indexed on the join key) against
// the hash join the same query gets over an identical unindexed table.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/database_session.h"
#include "io/synth.h"
#include "sqldb/connection.h"
#include "util/rng.h"

using namespace perfdmf::sqldb;

namespace {

std::vector<std::vector<std::string>> materialize(ResultSet& rs) {
  std::vector<std::vector<std::string>> out;
  while (rs.next()) {
    std::vector<std::string> row;
    row.reserve(rs.column_count());
    for (std::size_t c = 1; c <= rs.column_count(); ++c) {
      row.push_back(rs.is_null(c) ? std::string("<null>") : rs.get(c).to_string());
    }
    out.push_back(std::move(row));
  }
  return out;
}

class ParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // PerfDMF-shaped tables: events joined against per-location profiles.
    conn.execute_update(
        "CREATE TABLE event (id INTEGER PRIMARY KEY, name TEXT NOT NULL)");
    conn.execute_update(
        "CREATE TABLE ilp (id INTEGER PRIMARY KEY, event INTEGER,"
        " node INTEGER, excl REAL, incl REAL)");
    {
      auto ins = conn.prepare("INSERT INTO event (id, name) VALUES (?, ?)");
      for (int i = 1; i <= 10; ++i) {
        ins.set_int(1, i);
        ins.set_string(2, "ev" + std::to_string(i % 4));  // duplicate names
        ins.execute_update();
      }
    }
    {
      auto ins = conn.prepare(
          "INSERT INTO ilp (event, node, excl, incl) VALUES (?, ?, ?, ?)");
      for (int i = 0; i < 60; ++i) {
        if (i % 12 == 0) {
          ins.set_null(1);  // NULL join keys
        } else {
          ins.set_int(1, 1 + i % 10);
        }
        ins.set_int(2, i % 5);
        ins.set_double(3, static_cast<double>(i * 37 % 100) / 100.0);
        ins.set_double(4, static_cast<double>(i * 37 % 100) / 50.0);
        ins.execute_update();
      }
    }
    conn.execute_update("CREATE INDEX ilp_excl ON ilp (excl)");

    // Unindexed pair with NULLs and duplicate keys on both sides: the
    // fallback here is a pure nested loop.
    conn.execute_update("CREATE TABLE t1 (k INTEGER, v INTEGER)");
    conn.execute_update("CREATE TABLE t2 (k INTEGER, w INTEGER)");
    conn.execute_update(
        "INSERT INTO t1 (k, v) VALUES (NULL, 0), (1, 1), (1, 2), (2, 3),"
        " (2, 4), (2, 5), (3, 6), (4, 7), (NULL, 8), (5, 9), (5, 10), (6, 11)");
    conn.execute_update(
        "INSERT INTO t2 (k, w) VALUES (NULL, 0), (1, 10), (1, 20), (2, 30),"
        " (3, 40), (3, 50), (7, 60), (NULL, 70), (5, 80), (5, 90)");
  }

  /// Run `sql` under the all-optimized config and under each fallback
  /// combination; all must agree. `totally_ordered` marks queries whose
  /// ORDER BY determines a unique row order (compared verbatim);
  /// everything else is compared as a sorted multiset.
  void expect_parity(const std::string& sql, bool totally_ordered = false) {
    ExecutorTuning all_off;
    all_off.hash_join = all_off.hash_group_by = all_off.top_k = false;

    conn.database().set_executor_tuning(all_off);
    auto baseline_rs = conn.execute(sql);
    auto baseline = materialize(baseline_rs);
    const auto baseline_columns = baseline_rs.column_names();
    if (!totally_ordered) std::sort(baseline.begin(), baseline.end());

    const ExecutorTuning configs[] = {
        {},                                          // everything on
        {false, true, true},                         // hash join off
        {true, false, true},                         // hash group-by off
        {true, true, false},                         // top-k off
    };
    for (const auto& config : configs) {
      conn.database().set_executor_tuning(config);
      auto rs = conn.execute(sql);
      auto rows = materialize(rs);
      if (!totally_ordered) std::sort(rows.begin(), rows.end());
      EXPECT_EQ(rs.column_names(), baseline_columns) << sql;
      EXPECT_EQ(rows, baseline)
          << sql << "\n(hash_join=" << config.hash_join
          << " hash_group_by=" << config.hash_group_by
          << " top_k=" << config.top_k << ")";
    }
    conn.database().set_executor_tuning(ExecutorTuning{});
  }

  Connection conn;
};

TEST_F(ParityTest, EquiJoinAgainstIndexedKey) {
  expect_parity("SELECT e.name, p.excl FROM ilp p JOIN event e ON p.event = e.id");
}

TEST_F(ParityTest, EquiJoinDuplicateAndNullKeysBothSides) {
  expect_parity("SELECT t1.v, t2.w FROM t1 JOIN t2 ON t1.k = t2.k");
}

TEST_F(ParityTest, LeftOuterJoinKeepsUnmatchedAndNullKeyRows) {
  expect_parity("SELECT t1.k, t1.v, t2.w FROM t1 LEFT JOIN t2 ON t1.k = t2.k");
  expect_parity(
      "SELECT e.name, p.node FROM ilp p LEFT JOIN event e ON p.event = e.id");
}

TEST_F(ParityTest, JoinWithResidualOnConjunct) {
  expect_parity(
      "SELECT t1.v, t2.w FROM t1 JOIN t2 ON t1.k = t2.k AND t2.w > 25");
  expect_parity(
      "SELECT t1.v, t2.w FROM t1 LEFT JOIN t2 ON t1.k = t2.k AND t2.w > 25");
}

TEST_F(ParityTest, ThreeWayJoin) {
  expect_parity(
      "SELECT e.name, p.node, t2.w FROM ilp p"
      " JOIN event e ON p.event = e.id"
      " JOIN t2 ON t2.k = p.node");
}

TEST_F(ParityTest, GroupByWithHavingOverJoin) {
  expect_parity(
      "SELECT e.name, COUNT(*) c, AVG(p.excl) FROM ilp p"
      " JOIN event e ON p.event = e.id"
      " GROUP BY e.name HAVING COUNT(*) > 2");
}

TEST_F(ParityTest, GroupByNullKeyGroupsTogether) {
  expect_parity("SELECT event, SUM(excl), COUNT(*) FROM ilp GROUP BY event");
}

TEST_F(ParityTest, DistinctPlainAndOrdered) {
  expect_parity("SELECT DISTINCT node FROM ilp");
  expect_parity("SELECT DISTINCT node FROM ilp ORDER BY node LIMIT 4",
                /*totally_ordered=*/true);
}

TEST_F(ParityTest, OrderByLimitOffsetTotalOrder) {
  expect_parity("SELECT id, excl FROM ilp ORDER BY excl DESC, id LIMIT 7 OFFSET 3",
                /*totally_ordered=*/true);
  expect_parity("SELECT id, excl FROM ilp ORDER BY excl, id DESC LIMIT 1",
                /*totally_ordered=*/true);
}

TEST_F(ParityTest, TopKOverJoin) {
  expect_parity(
      "SELECT e.name, p.excl, p.id FROM ilp p JOIN event e ON p.event = e.id"
      " ORDER BY p.excl DESC, p.id LIMIT 5",
      /*totally_ordered=*/true);
}

TEST_F(ParityTest, AggregatedTopNHotRoutines) {
  expect_parity(
      "SELECT event, SUM(excl) total FROM ilp GROUP BY event"
      " ORDER BY total DESC, event LIMIT 3",
      /*totally_ordered=*/true);
}

TEST_F(ParityTest, ViewBackedFrom) {
  conn.execute_update(
      "CREATE VIEW hot AS SELECT event, SUM(excl) total FROM ilp GROUP BY event");
  expect_parity("SELECT event, total FROM hot ORDER BY total DESC, event LIMIT 3",
                /*totally_ordered=*/true);
  expect_parity("SELECT COUNT(*) FROM hot");
}

TEST_F(ParityTest, StrictRangeOverIndexedColumn) {
  expect_parity("SELECT id FROM ilp WHERE excl > 0.5 AND excl <= 0.9");
  expect_parity("SELECT id FROM ilp WHERE excl BETWEEN 0.25 AND 0.75 AND excl > 0.25");
}

TEST_F(ParityTest, HavingWithOrderByPosition) {
  expect_parity(
      "SELECT node, COUNT(*) FROM ilp GROUP BY node"
      " HAVING COUNT(*) >= 2 ORDER BY 2 DESC, node",
      /*totally_ordered=*/true);
}

TEST_F(ParityTest, AggregateOverEmptyInput) {
  expect_parity("SELECT COUNT(*), SUM(excl) FROM ilp WHERE node = 999");
}

// Late-materialized working set: joined rows are one row pointer per
// source, so each case below reads values through those pointers in a
// different place (group keys, NULL padding, sort keys, '*', aliases,
// materialized tables).

TEST_F(ParityTest, GroupByOutgrowsTheInitialHashTable) {
  // 60 groups pass the 48 the initial 64-slot table holds at 0.75 load,
  // so the hash strategy rehashes mid-aggregation.
  expect_parity("SELECT id, COUNT(*), SUM(excl) FROM ilp GROUP BY id");
  expect_parity(
      "SELECT p.id, e.name, MAX(p.incl) FROM ilp p JOIN event e"
      " ON p.event = e.id GROUP BY p.id, e.name");
  auto rs = conn.execute("EXPLAIN SELECT id, COUNT(*) FROM ilp GROUP BY id");
  bool grew = false;
  while (rs.next()) grew |= rs.get_string(1) == "group-by: hash groups=60";
  EXPECT_TRUE(grew);
}

TEST_F(ParityTest, LeftOuterJoinFilteredOnPaddedColumn) {
  expect_parity(
      "SELECT t1.k, t1.v, t2.w FROM t1 LEFT JOIN t2 ON t1.k = t2.k"
      " WHERE t2.w IS NULL");
  expect_parity(
      "SELECT t1.v, t2.w FROM t1 LEFT JOIN t2 ON t1.k = t2.k"
      " WHERE t2.w > 25 OR t2.k IS NULL");
  expect_parity(
      "SELECT t1.v, t2.w FROM t1 LEFT JOIN t2 ON t1.k = t2.k"
      " WHERE t1.v > 2 AND COALESCE(t2.w, -1) < 50");
}

TEST_F(ParityTest, OrderByExpressionOverJoinedColumns) {
  expect_parity(
      "SELECT t1.v, t2.w FROM t1 JOIN t2 ON t1.k = t2.k"
      " ORDER BY t2.w - t1.v DESC, t1.v, t2.w",
      /*totally_ordered=*/true);
  expect_parity(
      "SELECT t1.v, t2.w FROM t1 JOIN t2 ON t1.k = t2.k"
      " ORDER BY t2.w - t1.v, t1.v LIMIT 4",
      /*totally_ordered=*/true);
  // Keys that are no output column, one of them NULL-padded.
  expect_parity(
      "SELECT t1.v FROM t1 LEFT JOIN t2 ON t1.k = t2.k"
      " ORDER BY t2.w DESC, t1.v LIMIT 6",
      /*totally_ordered=*/true);
}

TEST_F(ParityTest, SelectStarOverThreeWayJoin) {
  expect_parity(
      "SELECT * FROM ilp p JOIN event e ON p.event = e.id"
      " JOIN t2 ON t2.k = p.node");
  expect_parity(
      "SELECT * FROM t1 LEFT JOIN t2 ON t1.k = t2.k"
      " LEFT JOIN event e ON e.id = t2.k");
}

TEST_F(ParityTest, SelfJoinWithAliases) {
  expect_parity(
      "SELECT a.id, b.id, a.event FROM ilp a JOIN ilp b"
      " ON a.event = b.event AND a.id < b.id WHERE a.node = 1");
  expect_parity(
      "SELECT a.k, a.v, b.v FROM t1 a LEFT JOIN t1 b"
      " ON a.k = b.k AND a.v != b.v");
}

TEST_F(ParityTest, ViewAndSystemTableOnTheRightOfAJoin) {
  conn.execute_update(
      "CREATE VIEW hot AS SELECT event, SUM(excl) total FROM ilp GROUP BY event");
  expect_parity(
      "SELECT e.name, h.total FROM event e JOIN hot h ON h.event = e.id");
  expect_parity(
      "SELECT e.id, h.total FROM event e LEFT JOIN hot h ON h.event = e.id"
      " WHERE h.total > 1.0 OR h.total IS NULL");
  // An in-memory database's PERFDMF_WAL is one stable row of zeros.
  expect_parity(
      "SELECT t1.v, w.sync_mode FROM t1 JOIN PERFDMF_WAL w"
      " ON w.durable_seq = t1.v");
  expect_parity(
      "SELECT t1.k, w.written_seq FROM t1 LEFT JOIN PERFDMF_WAL w"
      " ON w.written_seq = t1.k");
}

std::string explain_plan(Connection& conn, const std::string& sql,
                         const Params& params = {}) {
  auto rs = conn.execute("EXPLAIN " + sql, params);
  std::string plan;
  while (rs.next()) plan += rs.get_string(1) + "\n";
  return plan;
}

std::vector<std::vector<std::string>> sorted_rows(Connection& conn,
                                                  const std::string& sql) {
  auto rs = conn.execute(sql);
  auto rows = materialize(rs);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Random parent/child tables in two copies: `child_idx` indexes both
/// join keys, `child_hash` indexes neither. Keys include NULLs, reals
/// equal to the parents' integer keys (3.0 vs 3), reals between them,
/// and keys no parent has; updates and deletes leave index entries whose
/// slots no longer carry the key.
void fill_join_tables(Connection& conn, std::uint64_t seed) {
  conn.execute_update(
      "CREATE TABLE parent (id INTEGER PRIMARY KEY, tag INTEGER)");
  conn.execute_update("CREATE TABLE lreal (k REAL, tag INTEGER)");
  for (const char* child : {"child_idx", "child_hash"}) {
    conn.execute_update(std::string("CREATE TABLE ") + child +
                        " (id INTEGER PRIMARY KEY, pid REAL, iid INTEGER,"
                        " val INTEGER)");
  }
  conn.execute_update("CREATE INDEX child_idx_pid ON child_idx (pid)");
  conn.execute_update("CREATE INDEX child_idx_iid ON child_idx (iid)");

  perfdmf::util::Rng rng(seed);
  constexpr int kParents = 24;
  auto parent = conn.prepare("INSERT INTO parent (id, tag) VALUES (?, ?)");
  for (int id = 1; id <= kParents; ++id) {
    parent.set_int(1, id);
    parent.set_int(2, static_cast<std::int64_t>(rng.uniform(0.0, 5.0)));
    parent.execute_update();
  }
  auto lreal = conn.prepare("INSERT INTO lreal (k, tag) VALUES (?, ?)");
  for (int i = 0; i < 16; ++i) {
    const double u = rng.next_double();
    if (u < 0.2) {
      lreal.set_null(1);
    } else if (u < 0.4) {
      lreal.set_double(1, static_cast<int>(rng.uniform(1.0, 30.0)) + 0.5);
    } else {
      lreal.set_double(1, static_cast<int>(rng.uniform(1.0, 30.0)));
    }
    lreal.set_int(2, static_cast<std::int64_t>(rng.uniform(0.0, 5.0)));
    lreal.execute_update();
  }

  auto idx = conn.prepare(
      "INSERT INTO child_idx (id, pid, iid, val) VALUES (?, ?, ?, ?)");
  auto hash = conn.prepare(
      "INSERT INTO child_hash (id, pid, iid, val) VALUES (?, ?, ?, ?)");
  for (int id = 1; id <= 2000; ++id) {
    const double u = rng.next_double();
    const int key = static_cast<int>(rng.uniform(1.0, 30.0));  // 25..29: no parent
    const bool null_pid = u < 0.1;
    const bool half_pid = u > 0.9;  // 3.5: equals no integer key
    const bool null_iid = rng.next_double() < 0.1;
    const auto val = static_cast<std::int64_t>(rng.uniform(0.0, 100.0));
    for (PreparedStatement* ins : {&idx, &hash}) {
      ins->set_int(1, id);
      if (null_pid) {
        ins->set_null(2);
      } else {
        ins->set_double(2, key + (half_pid ? 0.5 : 0.0));
      }
      if (null_iid) {
        ins->set_null(3);
      } else {
        ins->set_int(3, key);
      }
      ins->set_int(4, val);
      ins->execute_update();
    }
  }
  for (const char* child : {"child_idx", "child_hash"}) {
    conn.execute_update(std::string("UPDATE ") + child +
                        " SET pid = pid + 1, iid = iid - 1 WHERE id % 7 = 0");
    conn.execute_update(std::string("DELETE FROM ") + child +
                        " WHERE id % 11 = 0");
  }
}

TEST(IndexProbeJoin, MatchesHashJoinOnRandomTables) {
  // Each query is written against child_X; the indexed copy must plan an
  // index probe, the unindexed copy a hash join, and both must return
  // the same multiset of rows.
  const std::vector<std::string> queries = {
      "SELECT p.id, p.tag, c.id, c.val FROM parent p"
      " JOIN child_X c ON c.pid = p.id",
      "SELECT p.id, c.id FROM parent p JOIN child_X c ON p.id = c.iid"
      " WHERE p.tag < 3",
      "SELECT p.id, p.tag, c.id, c.val FROM parent p"
      " LEFT JOIN child_X c ON c.pid = p.id",
      "SELECT p.id, c.id, c.val FROM parent p"
      " JOIN child_X c ON c.iid = p.id AND c.val > 40 AND c.val > p.tag * 10",
      "SELECT p.id, c.id, c.val FROM parent p"
      " LEFT JOIN child_X c ON c.pid = p.id AND c.val < 50",
      "SELECT l.k, l.tag, c.id FROM lreal l JOIN child_X c ON c.iid = l.k",
      "SELECT l.k, l.tag, c.id FROM lreal l JOIN child_X c ON c.pid = l.k",
      "SELECT l.k, c.id, c.val FROM lreal l"
      " LEFT JOIN child_X c ON l.k = c.pid AND c.val >= l.tag * 20",
      "SELECT p.id, COUNT(c.id), SUM(c.val) FROM parent p"
      " LEFT JOIN child_X c ON c.iid = p.id GROUP BY p.id",
  };
  auto with = [](std::string sql, const std::string& table) {
    const auto at = sql.find("child_X");
    return sql.replace(at, 7, table);
  };
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Connection conn;
    fill_join_tables(conn, seed);
    for (const auto& query : queries) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ": " + query);
      const std::string probed = with(query, "child_idx");
      const std::string hashed = with(query, "child_hash");
      EXPECT_NE(explain_plan(conn, probed).find("join c: index-nested-loop"),
                std::string::npos);
      EXPECT_NE(explain_plan(conn, hashed).find("join c: hash"),
                std::string::npos);
      const auto expected = sorted_rows(conn, hashed);
      EXPECT_FALSE(expected.empty());
      EXPECT_EQ(sorted_rows(conn, probed), expected);
    }
  }
}

TEST(IndexProbeJoin, LargeLeftSideKeepsHashJoin) {
  // ~1,800 left rows x ceil(log2 24) probes of parent's primary-key index
  // cost more than reading its 24 rows once.
  Connection conn;
  fill_join_tables(conn, 7);
  const std::string sql =
      "SELECT c.id, p.id FROM child_idx c JOIN parent p ON p.id = c.iid";
  EXPECT_NE(explain_plan(conn, sql).find("join p: hash build=right"),
            std::string::npos);
}

TEST(IndexProbeJoin, PerTrialAggregateProbesOnTenTrialArchive) {
  perfdmf::api::DatabaseSession archive;
  std::int64_t trial = -1;
  for (int i = 0; i < 10; ++i) {
    perfdmf::io::synth::TrialSpec spec;
    spec.nodes = 16;
    spec.seed = static_cast<std::uint64_t>(i);
    spec.name = "trial_" + std::to_string(i);
    trial = archive.save_trial(perfdmf::io::synth::generate_trial(spec), "app",
                               "exp");
  }
  auto& conn = *archive.api().connection_ptr();
  auto rs = conn.execute("SELECT MIN(id) FROM interval_event WHERE trial = ?",
                         {Value(trial)});
  ASSERT_TRUE(rs.next());
  const Params params{Value(trial), Value(rs.get_int(1))};
  // The text DatabaseAPI::aggregate_interval_column sends.
  const std::string plan = explain_plan(
      conn,
      "SELECT COUNT(p.exclusive), MIN(p.exclusive), MAX(p.exclusive),"
      " AVG(p.exclusive), STDDEV(p.exclusive) FROM interval_event e"
      " JOIN interval_location_profile p ON p.interval_event = e.id"
      " WHERE e.trial = ? AND e.id = ?",
      params);
  EXPECT_NE(plan.find("join p: index-nested-loop"), std::string::npos) << plan;
  const auto summary =
      archive.api().aggregate_interval_column(trial, params[1].as_int(),
                                              "exclusive");
  EXPECT_EQ(summary.count, 16u);
}

}  // namespace
