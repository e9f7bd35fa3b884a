#include "sqldb/expr_eval.h"

#include <cmath>

#include "util/error.h"
#include "util/strings.h"

namespace perfdmf::sqldb {

bool is_aggregate_function(const std::string& upper_name) {
  return upper_name == "COUNT" || upper_name == "SUM" || upper_name == "AVG" ||
         upper_name == "MIN" || upper_name == "MAX" || upper_name == "STDDEV" ||
         upper_name == "VARIANCE";
}

void bind_expr(Expr& expr, std::span<const BoundColumn> columns) {
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      const std::string qualifier = util::to_lower(expr.table_qualifier);
      std::size_t found = static_cast<std::size_t>(-1);
      for (std::size_t i = 0; i < columns.size(); ++i) {
        if (!util::iequals(columns[i].name, expr.column_name)) continue;
        if (!qualifier.empty() && !util::iequals(columns[i].qualifier, qualifier)) {
          continue;
        }
        if (found != static_cast<std::size_t>(-1)) {
          throw DbError("ambiguous column reference '" + expr.column_name + "'");
        }
        found = i;
      }
      if (found == static_cast<std::size_t>(-1)) {
        std::string full = expr.table_qualifier.empty()
                               ? expr.column_name
                               : expr.table_qualifier + "." + expr.column_name;
        throw DbError("unknown column '" + full + "'");
      }
      // Sources are contiguous: the column's index in its source's row is
      // its distance from the source's first column.
      std::size_t first = found;
      while (first > 0 && columns[first - 1].source == columns[found].source) {
        --first;
      }
      expr.resolved_source = columns[found].source;
      expr.resolved_index = found - first;
      break;
    }
    default:
      for (auto& child : expr.children) bind_expr(*child, columns);
  }
}

bool is_truthy(const Value& v) {
  if (v.is_null()) return false;
  switch (v.type()) {
    case ValueType::kInt: return v.as_int() != 0;
    case ValueType::kReal: return v.as_real() != 0.0;
    case ValueType::kText: return !v.as_text().empty();
    case ValueType::kNull: return false;
  }
  return false;
}

bool like_match(const std::string& text, const std::string& pattern) {
  // Iterative matcher with backtracking over the last '%'.
  std::size_t t = 0;
  std::size_t p = 0;
  std::size_t star_p = std::string::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

const Value& column_value(const Expr& expr, SourceRows sources) {
  static const Value kNull;
  if (expr.resolved_index == static_cast<std::size_t>(-1)) {
    throw DbError("unbound column reference '" + expr.column_name + "'");
  }
  if (expr.resolved_source >= sources.size()) {
    throw DbError("column index out of range during evaluation");
  }
  const Row* row = sources[expr.resolved_source];
  if (row == nullptr) return kNull;  // LEFT OUTER JOIN padding
  if (expr.resolved_index >= row->size()) {
    throw DbError("column index out of range during evaluation");
  }
  return (*row)[expr.resolved_index];
}

const Value& placeholder_value(const Expr& expr, const Params& params) {
  if (expr.placeholder_index >= params.size()) {
    throw DbError("missing bind parameter " +
                  std::to_string(expr.placeholder_index + 1));
  }
  return params[expr.placeholder_index];
}

Value eval_binary(const Expr& expr, SourceRows row, const Params& params);

Value eval_function(const Expr& expr, SourceRows row, const Params& params) {
  const std::string& name = expr.function_name;
  if (is_aggregate_function(name)) {
    throw DbError("aggregate " + name + "() used outside SELECT list / HAVING");
  }
  auto arg = [&](std::size_t i) -> Value {
    if (i >= expr.children.size()) {
      throw DbError(name + "() missing argument " + std::to_string(i + 1));
    }
    return eval_expr(*expr.children[i], row, params);
  };
  if (name == "ABS") {
    Value v = arg(0);
    if (v.is_null()) return v;
    if (v.type() == ValueType::kInt) return Value(std::abs(v.as_int()));
    return Value(std::fabs(v.as_real()));
  }
  if (name == "LOWER") {
    Value v = arg(0);
    if (v.is_null()) return v;
    return Value(util::to_lower(v.as_text()));
  }
  if (name == "UPPER") {
    Value v = arg(0);
    if (v.is_null()) return v;
    return Value(util::to_upper(v.as_text()));
  }
  if (name == "LENGTH") {
    Value v = arg(0);
    if (v.is_null()) return v;
    return Value(static_cast<std::int64_t>(v.as_text().size()));
  }
  if (name == "COALESCE") {
    for (const auto& child : expr.children) {
      Value v = eval_expr(*child, row, params);
      if (!v.is_null()) return v;
    }
    return Value();
  }
  if (name == "SQRT") {
    Value v = arg(0);
    if (v.is_null()) return v;
    return Value(std::sqrt(v.as_real()));
  }
  if (name == "ROUND") {
    Value v = arg(0);
    if (v.is_null()) return v;
    double scale = 1.0;
    if (expr.children.size() > 1) {
      Value digits = arg(1);
      scale = std::pow(10.0, static_cast<double>(digits.as_int()));
    }
    return Value(std::round(v.as_real() * scale) / scale);
  }
  throw DbError("unknown function " + name + "()");
}

Value eval_binary(const Expr& expr, SourceRows row, const Params& params) {
  const std::string& op = expr.op;
  // AND/OR need three-valued logic with short-circuiting.
  if (op == "AND") {
    Value a = eval_expr(*expr.children[0], row, params);
    if (!a.is_null() && !is_truthy(a)) return Value(std::int64_t{0});
    Value b = eval_expr(*expr.children[1], row, params);
    if (!b.is_null() && !is_truthy(b)) return Value(std::int64_t{0});
    if (a.is_null() || b.is_null()) return Value();
    return Value(std::int64_t{1});
  }
  if (op == "OR") {
    Value a = eval_expr(*expr.children[0], row, params);
    if (!a.is_null() && is_truthy(a)) return Value(std::int64_t{1});
    Value b = eval_expr(*expr.children[1], row, params);
    if (!b.is_null() && is_truthy(b)) return Value(std::int64_t{1});
    if (a.is_null() || b.is_null()) return Value();
    return Value(std::int64_t{0});
  }

  Value scratch_a;
  Value scratch_b;
  const Value& a = eval_ref(*expr.children[0], row, params, scratch_a);
  const Value& b = eval_ref(*expr.children[1], row, params, scratch_b);

  if (op == "LIKE") {
    if (a.is_null() || b.is_null()) return Value();
    bool matched = like_match(a.to_string(), b.to_string());
    if (expr.negated) matched = !matched;
    return Value(std::int64_t{matched ? 1 : 0});
  }
  if (op == "||") {
    if (a.is_null() || b.is_null()) return Value();
    return Value(a.to_string() + b.to_string());
  }

  if (op == "="|| op == "!=" || op == "<" || op == "<=" || op == ">" || op == ">=") {
    if (a.is_null() || b.is_null()) return Value();  // SQL: NULL compares to NULL
    const int c = a.compare(b);
    bool result = false;
    if (op == "=") result = c == 0;
    else if (op == "!=") result = c != 0;
    else if (op == "<") result = c < 0;
    else if (op == "<=") result = c <= 0;
    else if (op == ">") result = c > 0;
    else result = c >= 0;
    return Value(std::int64_t{result ? 1 : 0});
  }

  // Arithmetic.
  if (a.is_null() || b.is_null()) return Value();
  const bool both_int =
      a.type() == ValueType::kInt && b.type() == ValueType::kInt;
  if (op == "+") {
    if (both_int) return Value(a.as_int() + b.as_int());
    return Value(a.as_real() + b.as_real());
  }
  if (op == "-") {
    if (both_int) return Value(a.as_int() - b.as_int());
    return Value(a.as_real() - b.as_real());
  }
  if (op == "*") {
    if (both_int) return Value(a.as_int() * b.as_int());
    return Value(a.as_real() * b.as_real());
  }
  if (op == "/") {
    // SQL-style: integer / integer stays integral only when exact division
    // is not needed by callers; PerfDMF derived metrics want real division.
    const double denominator = b.as_real();
    if (denominator == 0.0) return Value();  // division by zero yields NULL
    return Value(a.as_real() / denominator);
  }
  if (op == "%") {
    if (b.as_int() == 0) return Value();
    return Value(a.as_int() % b.as_int());
  }
  throw DbError("unknown operator '" + op + "'");
}

}  // namespace

const Value& detail::eval_ref(const Expr& expr, SourceRows sources,
                              const Params& params, Value& scratch) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef:
      return column_value(expr, sources);
    case ExprKind::kPlaceholder:
      return placeholder_value(expr, params);
    default:
      scratch = eval_expr(expr, sources, params);
      return scratch;
  }
}

Value eval_expr(const Expr& expr, SourceRows row, const Params& params) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef:
      return column_value(expr, row);
    case ExprKind::kPlaceholder:
      return placeholder_value(expr, params);
    case ExprKind::kUnary: {
      Value v = eval_expr(*expr.children[0], row, params);
      if (expr.op == "-") {
        if (v.is_null()) return v;
        if (v.type() == ValueType::kInt) return Value(-v.as_int());
        return Value(-v.as_real());
      }
      if (expr.op == "NOT") {
        if (v.is_null()) return v;
        return Value(std::int64_t{is_truthy(v) ? 0 : 1});
      }
      throw DbError("unknown unary operator '" + expr.op + "'");
    }
    case ExprKind::kBinary:
      return eval_binary(expr, row, params);
    case ExprKind::kFunction:
      return eval_function(expr, row, params);
    case ExprKind::kIsNull: {
      Value scratch;
      bool null = eval_ref(*expr.children[0], row, params, scratch).is_null();
      if (expr.negated) null = !null;
      return Value(std::int64_t{null ? 1 : 0});
    }
    case ExprKind::kInList: {
      Value needle_scratch;
      const Value& needle =
          eval_ref(*expr.children[0], row, params, needle_scratch);
      if (needle.is_null()) return Value();
      bool found = false;
      bool saw_null = false;
      for (std::size_t i = 1; i < expr.children.size(); ++i) {
        Value scratch;
        const Value& candidate = eval_ref(*expr.children[i], row, params, scratch);
        if (candidate.is_null()) {
          saw_null = true;
          continue;
        }
        if (needle == candidate) {
          found = true;
          break;
        }
      }
      if (!found && saw_null) return Value();  // unknown
      if (expr.negated) found = !found;
      return Value(std::int64_t{found ? 1 : 0});
    }
    case ExprKind::kBetween: {
      Value scratch_v;
      Value scratch_lo;
      Value scratch_hi;
      const Value& v = eval_ref(*expr.children[0], row, params, scratch_v);
      const Value& lo = eval_ref(*expr.children[1], row, params, scratch_lo);
      const Value& hi = eval_ref(*expr.children[2], row, params, scratch_hi);
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value();
      bool inside = v >= lo && v <= hi;
      if (expr.negated) inside = !inside;
      return Value(std::int64_t{inside ? 1 : 0});
    }
    case ExprKind::kStar:
      throw DbError("'*' is only valid inside COUNT(*)");
  }
  throw DbError("unreachable expression kind");
}

std::vector<Expr*> find_aggregates(Expr& expr) {
  std::vector<Expr*> out;
  if (expr.kind == ExprKind::kFunction && is_aggregate_function(expr.function_name)) {
    for (auto& child : expr.children) {
      if (!find_aggregates(*child).empty()) {
        throw DbError("nested aggregate functions are not supported");
      }
    }
    out.push_back(&expr);
    return out;
  }
  for (auto& child : expr.children) {
    auto inner = find_aggregates(*child);
    out.insert(out.end(), inner.begin(), inner.end());
  }
  return out;
}

}  // namespace perfdmf::sqldb
