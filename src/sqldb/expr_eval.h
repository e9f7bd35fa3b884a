// Expression binding and evaluation.
//
// Binding resolves column references against an ordered list of
// (qualifier, column-name, source) entries describing the working row
// produced by the FROM/JOIN stage: a column binds to (source, column).
// Evaluation reads through one row pointer per source, so a joined row is
// never concatenated. It implements SQL three-valued logic for
// predicates: comparisons with NULL yield NULL, WHERE keeps only rows
// where the predicate is truthy.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sqldb/ast.h"
#include "sqldb/table.h"

namespace perfdmf::sqldb {

/// One output column of the row environment an expression evaluates over.
/// A source's columns are contiguous and in its row's order.
struct BoundColumn {
  std::string qualifier;  // table alias (lower-cased for matching)
  std::string name;       // column name
  std::size_t source = 0;  // which of the SourceRows carries the column
};

/// Resolve every kColumnRef in `expr` to (resolved_source, resolved_index):
/// the source and the column's position in that source's row.
/// Ambiguous or unknown names throw DbError.
void bind_expr(Expr& expr, std::span<const BoundColumn> columns);

/// Values supplied for '?' placeholders.
using Params = std::vector<Value>;

/// The row an expression evaluates over: one row per FROM/JOIN source, in
/// join order. A nullptr source is a LEFT OUTER JOIN's NULL padding: every
/// column of it reads NULL.
using SourceRows = std::span<const Row* const>;

/// Evaluate a bound scalar expression. Aggregate function calls are not
/// valid here (the executor computes them separately and rewrites them to
/// literals); encountering one throws DbError.
Value eval_expr(const Expr& expr, SourceRows sources, const Params& params);

/// eval_expr over a single row (source 0).
inline Value eval_expr(const Expr& expr, const Row& row, const Params& params) {
  const Row* one = &row;
  return eval_expr(expr, SourceRows(&one, 1), params);
}

namespace detail {
const Value& eval_ref(const Expr& expr, SourceRows sources,
                      const Params& params, Value& scratch);
}  // namespace detail

/// The value of `expr` without a copy when it is a column reference,
/// literal or placeholder; anything else is evaluated into `scratch`. The
/// reference lives as long as the rows, the statement and `scratch`.
/// Inline for its common case, a column of a present source row.
inline const Value& eval_ref(const Expr& expr, SourceRows sources,
                             const Params& params, Value& scratch) {
  if (expr.kind == ExprKind::kColumnRef && expr.resolved_source < sources.size()) {
    const Row* row = sources[expr.resolved_source];
    if (row != nullptr && expr.resolved_index < row->size()) {
      return (*row)[expr.resolved_index];
    }
  }
  return detail::eval_ref(expr, sources, params, scratch);
}

/// True iff the value is non-NULL and nonzero (SQL truthiness for WHERE).
bool is_truthy(const Value& v);

/// SQL LIKE with % and _ wildcards.
bool like_match(const std::string& text, const std::string& pattern);

/// Collect every aggregate function call in `expr` (pointers into the
/// tree, pre-order). Nested aggregates throw DbError.
std::vector<Expr*> find_aggregates(Expr& expr);

/// True for COUNT/SUM/AVG/MIN/MAX/STDDEV/VARIANCE names.
bool is_aggregate_function(const std::string& upper_name);

}  // namespace perfdmf::sqldb
