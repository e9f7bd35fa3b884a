// Statement execution against a Database catalog.
//
// SELECT pipeline: FROM/JOIN (hash join on equi-join conjuncts, with
// index-nested-loop and nested-loop fallbacks) -> WHERE (index-accelerated
// candidate selection on the base table) -> GROUP BY / aggregates (open-
// addressing hash of group keys with inline accumulators) -> HAVING ->
// projection -> DISTINCT -> ORDER BY (bounded Top-K heap when a LIMIT is
// present, full sort otherwise) -> LIMIT/OFFSET.
//
// Materialization is late. Up to the projection a working row is one
// row pointer per FROM/JOIN source, pointing at table row versions, which
// stay put for the statement (only Table::vacuum frees them, under full
// exclusion). Filters, join keys, group keys, aggregates, sort keys and
// DISTINCT read values through those pointers; each output value is
// copied once, into the result's single buffer. The result is a copy, so
// it stays valid after the statement's locks are released.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sqldb/ast.h"
#include "sqldb/expr_eval.h"
#include "sqldb/table.h"

namespace perfdmf::sqldb {

class Database;
class StatementRecord;

/// A materialized result: rows of column_names.size() values, row-major
/// in one buffer, so a result costs one allocation whatever its size.
struct ResultSetData {
  std::vector<std::string> column_names;
  std::vector<Value> cells;

  std::size_t width() const { return column_names.size(); }
  std::size_t row_count() const {
    return width() == 0 ? 0 : cells.size() / width();
  }
  std::span<const Value> row(std::size_t i) const {
    return {cells.data() + i * width(), width()};
  }
};

/// Runtime switches for the executor's optimized paths. Tests and benches
/// disable them to force the fallback strategies (nested-loop join,
/// ordered-map grouping, full sort) and compare results / timings; normal
/// operation leaves everything on. Not synchronized: toggle only while no
/// query is in flight.
struct ExecutorTuning {
  bool hash_join = true;
  bool hash_group_by = true;
  bool top_k = true;
};

/// One operator's runtime stats under EXPLAIN ANALYZE. Operators form a
/// chain in pipeline order (from -> join* -> filter -> group-by|project
/// -> order-by -> limit); each operator's rows_in is by construction the
/// preceding operator's rows_out, and the operator timing intervals are
/// disjoint, so their micros sum to at most the statement's total.
struct OperatorStats {
  std::string label;            // "from t", "join b", "group-by", ...
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t micros = 0;
  std::uint64_t entries = 0;    // hash-table entries (join build, group-by)
  std::uint64_t mem_bytes = 0;  // bytes charged against the memory budget
  bool degraded = false;        // operator fell back under memory pressure
};

/// Execute a SELECT. `params` supplies '?' bindings. The statement is
/// mutated in place (column binding, temporary aggregate rewriting) but
/// is restored to a reusable state, so prepared statements can re-execute
/// it with different parameters. `explain` is the statement record that
/// receives the plan: one line per decision (base-table access path, join
/// strategy per join, grouping strategy, ORDER BY strategy) and, under
/// EXPLAIN ANALYZE, the operator stats (StatementRecord::claim_plan).
ResultSetData execute_select(Database& db, SelectStatement& stmt,
                             const Params& params,
                             StatementRecord* explain = nullptr);

/// EXPLAIN SELECT: run the select (so group/strategy decisions reflect the
/// actual data) and return the plan lines as a one-column result. With
/// `analyze` (EXPLAIN ANALYZE) each operator's runtime stats are appended
/// as additional "analyze <op>: ..." lines, and the statement's trace is
/// kept in the slow-query ring with that operator-level detail. The
/// Connection layer appends a plan-cache line for EXPLAIN statements.
ResultSetData execute_explain(Database& db, SelectStatement& stmt,
                              const Params& params, bool analyze = false);

/// Candidate RowIds for a WHERE clause over a single table, using an
/// index when the (already bound) predicate pins an indexed column with
/// '=', '<', '<=', '>', '>=' or BETWEEN against a literal/placeholder.
/// Unique-index equality is preferred over non-unique equality, which is
/// preferred over ranges; strict bounds are served exclusively. The
/// caller must still evaluate the full predicate per candidate, and
/// resolve each id against `view` (index hits may be stale).
std::vector<RowId> collect_candidates(const Table& table, const Expr* bound_where,
                                      const Params& params, const ReadView& view);

}  // namespace perfdmf::sqldb
