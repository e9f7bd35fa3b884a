// Abstract syntax tree for the SQL subset the engine executes.
//
// The subset is what PerfDMF's schema bootstrap, bulk loading, and the
// query/analysis API generate: CREATE/DROP/ALTER TABLE, CREATE INDEX,
// INSERT (multi-row, with placeholders), SELECT with joins, WHERE,
// GROUP BY + aggregates, HAVING, ORDER BY, LIMIT, UPDATE, DELETE, and
// transaction control.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sqldb/schema.h"
#include "sqldb/value.h"

namespace perfdmf::sqldb {

// ---------------------------------------------------------------- exprs

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kPlaceholder,  // '?', bound at execution time
  kUnary,        // -, NOT
  kBinary,       // arithmetic, comparison, AND/OR, LIKE, ||
  kFunction,     // scalar or aggregate call
  kIsNull,       // IS NULL / IS NOT NULL
  kInList,       // expr IN (e1, e2, ...)
  kBetween,      // expr BETWEEN lo AND hi
  kStar,         // '*' inside COUNT(*)
};

struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  Value literal;                    // kLiteral
  std::string table_qualifier;      // kColumnRef (may be empty)
  std::string column_name;          // kColumnRef
  std::size_t placeholder_index = 0;  // kPlaceholder (0-based)
  std::string op;                   // kUnary / kBinary operator spelling
  std::string function_name;        // kFunction (upper-cased)
  bool negated = false;             // IS NOT NULL, NOT IN, NOT BETWEEN, NOT LIKE
  bool distinct = false;            // COUNT(DISTINCT x)
  std::vector<std::unique_ptr<Expr>> children;

  // Resolved by bind_expr before evaluation (kColumnRef): the source row
  // of the working row, and the column's index in it. SIZE_MAX means
  // unresolved.
  std::size_t resolved_source = 0;
  std::size_t resolved_index = static_cast<std::size_t>(-1);
};

using ExprPtr = std::unique_ptr<Expr>;

ExprPtr make_literal(Value v);
ExprPtr make_column(std::string qualifier, std::string name);

// ----------------------------------------------------------- statements

enum class StatementKind {
  kCreateTable,
  kDropTable,
  kCreateView,
  kDropView,
  kAlterAddColumn,
  kAlterDropColumn,
  kCreateIndex,
  kInsert,
  kSelect,
  kExplain,  // EXPLAIN SELECT ...: runs the select, returns the plan
  kUpdate,
  kDelete,
  kBegin,
  kCommit,
  kRollback,
};

struct SelectItem {
  ExprPtr expr;        // null means bare '*'
  std::string alias;   // output column name override
};

struct TableRef {
  std::string table;
  std::string alias;   // empty -> table name
};

struct JoinClause {
  TableRef table;
  ExprPtr on;          // join condition
  bool left_outer = false;  // LEFT [OUTER] JOIN: unmatched left rows kept,
                            // right columns NULL-padded
};

struct OrderItem {
  ExprPtr expr;
  bool descending = false;
};

struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::optional<TableRef> from;            // SELECT without FROM is allowed
  std::vector<JoinClause> joins;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  /// LIMIT/OFFSET accept an integer literal (possibly negative — rejected
  /// at execution time) or a '?' placeholder; null means absent.
  ExprPtr limit;
  ExprPtr offset;
};

struct InsertStatement {
  std::string table;
  std::vector<std::string> columns;        // empty -> all columns in order
  std::vector<std::vector<ExprPtr>> rows;  // VALUES tuples
  /// INSERT INTO t (...) SELECT ... — when set, `rows` is empty and the
  /// select's result feeds the insert.
  std::unique_ptr<SelectStatement> select;
};

struct UpdateStatement {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};

struct DeleteStatement {
  std::string table;
  ExprPtr where;
};

struct CreateTableStatement {
  bool if_not_exists = false;
  TableSchema schema;
};

struct DropTableStatement {
  bool if_exists = false;
  std::string table;
};

struct AlterColumnStatement {
  std::string table;
  ColumnDef column;        // for ADD
  std::string column_name;  // for DROP
};

struct CreateIndexStatement {
  bool unique = false;
  std::string name;
  std::string table;
  std::string column;
};

struct CreateViewStatement {
  std::string name;
  std::string select_sql;  // the raw SELECT text, re-parsed on use
};

struct DropViewStatement {
  bool if_exists = false;
  std::string name;
};

struct Statement {
  StatementKind kind = StatementKind::kSelect;
  SelectStatement select;
  InsertStatement insert;
  UpdateStatement update;
  DeleteStatement del;
  CreateTableStatement create_table;
  DropTableStatement drop_table;
  AlterColumnStatement alter;
  CreateIndexStatement create_index;
  CreateViewStatement create_view;
  DropViewStatement drop_view;
  /// EXPLAIN ANALYZE (kind == kExplain only): execute the statement and
  /// annotate the plan with per-operator runtime stats.
  bool analyze = false;
  /// Number of '?' placeholders in the statement.
  std::size_t placeholder_count = 0;
};

}  // namespace perfdmf::sqldb
