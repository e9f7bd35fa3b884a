#include "sqldb/executor.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "sqldb/database.h"
#include "sqldb/statement_record.h"
#include "sqldb/system_tables.h"
#include "util/error.h"
#include "util/strings.h"

namespace perfdmf::sqldb {

namespace {

// Flat per-entry estimates for memory-budget accounting. Exact sizes
// don't matter: the budget exists to bound the growth of operator state,
// so a conservative flat cost per retained entry/value is enough.
constexpr std::uint64_t kHashEntryBytes = 64;  // bucket + key + index slot
constexpr std::uint64_t kValueBytes = 48;      // one stored Value, amortized

/// Equi-join strategy when the right side is indexed on its join key:
/// probing the index costs about ceil(log2 right) per left row, a hash
/// join reads every right row once. Probe when that is cheaper, e.g. a
/// one-trial event list against the whole archive's profile table.
bool index_probe_is_cheaper(std::size_t left_rows, std::size_t right_rows) {
  if (right_rows == 0) return false;
  const auto log2_right =
      static_cast<std::size_t>(std::bit_width(right_rows - 1));
  return left_rows * log2_right < right_rows;
}

/// The calling thread's statement record, or `bare`'s ungoverned one
/// outside any Connection statement (WAL replay, direct Database use).
StatementRecord& current_record(std::optional<StatementRecord>& bare) {
  if (StatementRecord::current() == nullptr) bare.emplace("", nullptr);
  return *StatementRecord::current();
}

// ------------------------------------------------------------ planning

/// A simple index-usable predicate: column (by resolved index) op constant.
struct IndexPredicate {
  std::size_t column = 0;
  std::string op;  // "=", "<", "<=", ">", ">="
  Value value;
};

bool is_constant_expr(const Expr& e) {
  return e.kind == ExprKind::kLiteral || e.kind == ExprKind::kPlaceholder;
}

Value const_value(const Expr& e, const Params& params) {
  if (e.kind == ExprKind::kLiteral) return e.literal;
  if (e.placeholder_index >= params.size()) {
    throw DbError("missing bind parameter " + std::to_string(e.placeholder_index + 1));
  }
  return params[e.placeholder_index];
}

/// Walk the AND-conjunction tree of a bound WHERE clause collecting
/// predicates an index can serve: those over the base table (source 0).
void collect_index_predicates(const Expr& e, const Params& params,
                              std::vector<IndexPredicate>& out) {
  auto is_base_column = [](const Expr& c) {
    return c.kind == ExprKind::kColumnRef && c.resolved_source == 0;
  };
  if (e.kind == ExprKind::kBinary && e.op == "AND") {
    collect_index_predicates(*e.children[0], params, out);
    collect_index_predicates(*e.children[1], params, out);
    return;
  }
  if (e.kind == ExprKind::kBetween && !e.negated &&
      is_base_column(*e.children[0]) &&
      is_constant_expr(*e.children[1]) && is_constant_expr(*e.children[2])) {
    out.push_back({e.children[0]->resolved_index, ">=",
                   const_value(*e.children[1], params)});
    out.push_back({e.children[0]->resolved_index, "<=",
                   const_value(*e.children[2], params)});
    return;
  }
  if (e.kind != ExprKind::kBinary) return;
  static const char* kOps[] = {"=", "<", "<=", ">", ">="};
  bool usable = false;
  for (const char* op : kOps) {
    if (e.op == op) usable = true;
  }
  if (!usable) return;
  const Expr* lhs = e.children[0].get();
  const Expr* rhs = e.children[1].get();
  std::string op = e.op;
  if (lhs->kind != ExprKind::kColumnRef && rhs->kind == ExprKind::kColumnRef) {
    std::swap(lhs, rhs);  // constant op column -> column (flipped op) constant
    if (op == "<") op = ">";
    else if (op == "<=") op = ">=";
    else if (op == ">") op = "<";
    else if (op == ">=") op = "<=";
  }
  if (is_base_column(*lhs) && is_constant_expr(*rhs)) {
    out.push_back({lhs->resolved_index, op, const_value(*rhs, params)});
  }
}

/// Split an AND-conjunction tree into its conjuncts (pointers into the
/// tree). A non-AND expression is a single conjunct.
void split_conjuncts(Expr& e, std::vector<Expr*>& out) {
  if (e.kind == ExprKind::kBinary && e.op == "AND") {
    split_conjuncts(*e.children[0], out);
    split_conjuncts(*e.children[1], out);
    return;
  }
  out.push_back(&e);
}

/// The access path chosen for one table: how candidate rows are fetched.
/// Candidates are a superset of the qualifying rows except for
/// kUniqueIndexEq/kIndexEq/kIndexRange over the selecting predicate, and
/// every caller re-evaluates its predicate(s) per candidate regardless.
struct AccessPath {
  enum class Kind { kScan, kIndexEq, kUniqueIndexEq, kIndexRange };
  Kind kind = Kind::kScan;
  std::size_t column = 0;
  Value eq_value;                 // kIndexEq / kUniqueIndexEq
  std::optional<Value> lo, hi;    // kIndexRange
  bool lo_inclusive = true;
  bool hi_inclusive = true;
};

/// Pick the best index-served predicate: unique-index equality (pins at
/// most one row) over non-unique equality over a range. Strict bounds
/// stay strict so the index fetches exactly the qualifying keys.
AccessPath choose_access_path(const Table& table,
                              const std::vector<IndexPredicate>& predicates) {
  AccessPath path;
  for (const auto& p : predicates) {
    if (p.op == "=" && table.has_unique_index(p.column)) {
      path.kind = AccessPath::Kind::kUniqueIndexEq;
      path.column = p.column;
      path.eq_value = p.value;
      return path;
    }
  }
  for (const auto& p : predicates) {
    if (p.op == "=" && table.has_index(p.column)) {
      path.kind = AccessPath::Kind::kIndexEq;
      path.column = p.column;
      path.eq_value = p.value;
      return path;
    }
  }
  for (const auto& p : predicates) {
    if (!table.has_index(p.column)) continue;
    std::optional<Value> lo, hi;
    bool lo_inclusive = true;
    bool hi_inclusive = true;
    for (const auto& q : predicates) {
      if (q.column != p.column) continue;
      if (q.op == ">" || q.op == ">=") {
        const bool inclusive = (q.op == ">=");
        const int c = lo ? q.value.compare(*lo) : 1;
        if (!lo || c > 0 || (c == 0 && lo_inclusive && !inclusive)) {
          lo = q.value;
          lo_inclusive = inclusive;
        }
      } else if (q.op == "<" || q.op == "<=") {
        const bool inclusive = (q.op == "<=");
        const int c = hi ? q.value.compare(*hi) : -1;
        if (!hi || c < 0 || (c == 0 && hi_inclusive && !inclusive)) {
          hi = q.value;
          hi_inclusive = inclusive;
        }
      }
    }
    if (lo || hi) {
      path.kind = AccessPath::Kind::kIndexRange;
      path.column = p.column;
      path.lo = std::move(lo);
      path.hi = std::move(hi);
      path.lo_inclusive = lo_inclusive;
      path.hi_inclusive = hi_inclusive;
      return path;
    }
  }
  return path;  // scan
}

std::vector<RowId> fetch_access_path(const Table& table, const AccessPath& path,
                                     const ReadView& view) {
  switch (path.kind) {
    case AccessPath::Kind::kUniqueIndexEq:
    case AccessPath::Kind::kIndexEq:
      if (auto hits = table.index_equal(path.column, path.eq_value)) return *hits;
      break;
    case AccessPath::Kind::kIndexRange:
      if (auto hits = table.index_range(path.column, path.lo, path.hi,
                                        path.lo_inclusive, path.hi_inclusive)) {
        return *hits;
      }
      break;
    case AccessPath::Kind::kScan:
      break;
  }
  std::vector<RowId> all;
  all.reserve(table.live_row_count());
  table.scan(view, [&](RowId id, const Row&) { all.push_back(id); });
  return all;
}

std::string describe_access_path(const Table& table, const AccessPath& path) {
  auto column_name = [&](std::size_t c) {
    return table.schema().columns()[c].name;
  };
  switch (path.kind) {
    case AccessPath::Kind::kUniqueIndexEq:
      return "unique-index-eq(" + column_name(path.column) + ")";
    case AccessPath::Kind::kIndexEq:
      return "index-eq(" + column_name(path.column) + ")";
    case AccessPath::Kind::kIndexRange:
      return "index-range(" + column_name(path.column) + ")";
    case AccessPath::Kind::kScan:
      break;
  }
  return "scan";
}

}  // namespace

std::vector<RowId> collect_candidates(const Table& table, const Expr* bound_where,
                                      const Params& params, const ReadView& view) {
  std::vector<IndexPredicate> predicates;
  if (bound_where != nullptr) {
    collect_index_predicates(*bound_where, params, predicates);
  }
  return fetch_access_path(table, choose_access_path(table, predicates), view);
}

namespace {

// ------------------------------------------------------- aggregation

struct Accumulator {
  const Expr* node = nullptr;  // the aggregate call in the tree
  std::int64_t count = 0;
  double sum = 0.0;
  double sum_squares = 0.0;
  std::int64_t int_sum = 0;
  bool all_int = true;
  bool any = false;
  Value min;
  Value max;
  std::set<Value> distinct;  // for COUNT(DISTINCT x)

  void add(const Value& v) {
    if (v.is_null()) return;
    any = true;
    ++count;
    if (node->distinct) distinct.insert(v);
    if (v.type() == ValueType::kInt) {
      int_sum += v.as_int();
    } else {
      all_int = false;
    }
    if (v.type() == ValueType::kInt || v.type() == ValueType::kReal) {
      const double d = v.as_real();
      sum += d;
      sum_squares += d * d;
    }
    if (min.is_null() || v < min) min = v;
    if (max.is_null() || v > max) max = v;
  }

  Value result() const {
    const std::string& name = node->function_name;
    if (name == "COUNT") {
      return Value(node->distinct ? static_cast<std::int64_t>(distinct.size())
                                  : count);
    }
    if (!any) return Value();  // SUM/AVG/MIN/MAX/STDDEV over no rows is NULL
    if (name == "SUM") return all_int ? Value(int_sum) : Value(sum);
    if (name == "AVG") return Value(sum / static_cast<double>(count));
    if (name == "MIN") return min;
    if (name == "MAX") return max;
    if (name == "STDDEV" || name == "VARIANCE") {
      if (count < 2) return Value();
      const double n = static_cast<double>(count);
      const double variance = (sum_squares - sum * sum / n) / (n - 1.0);
      const double clamped = variance < 0.0 ? 0.0 : variance;  // fp noise
      return Value(name == "VARIANCE" ? clamped : std::sqrt(clamped));
    }
    throw DbError("unknown aggregate " + name);
  }
};

/// RAII: rewrite aggregate nodes to literals for one evaluation, restore.
class AggregateRewrite {
 public:
  AggregateRewrite(const std::vector<Expr*>& nodes, const std::vector<Value>& values) {
    nodes_ = nodes;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->kind = ExprKind::kLiteral;
      nodes[i]->literal = values[i];
    }
  }
  ~AggregateRewrite() {
    for (Expr* node : nodes_) node->kind = ExprKind::kFunction;
  }

 private:
  std::vector<Expr*> nodes_;
};

constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

/// Hash of `n` values, element i read as get(i); consistent with
/// Value::compare equality element-wise.
template <typename Get>
std::size_t hash_values(std::size_t n, Get&& get) {
  std::size_t h = 1469598103934665603ULL;  // FNV offset basis
  for (std::size_t i = 0; i < n; ++i) {
    h ^= get(i).hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

/// A group key borrowed from a working row: one pointer per value.
using BorrowedKey = std::vector<const Value*>;

Row own_key(const BorrowedKey& key) {
  Row owned;
  owned.reserve(key.size());
  for (const Value* v : key) owned.push_back(*v);
  return owned;
}

/// Hash-join keys are borrowed from the rows they come from.
struct ValueRefHash {
  std::size_t operator()(const Value* v) const { return v->hash(); }
};
struct ValueRefEqual {
  bool operator()(const Value* a, const Value* b) const {
    return a->compare(*b) == 0;
  }
};

/// Open-addressing hash of group keys. Entries (key + representative row
/// + inline accumulators) live in a vector in first-seen order, which is
/// also the output order; the slot array holds entry indexes (+1, 0 means
/// empty) probed linearly, so rehashing only moves 4-byte slots.
struct GroupEntry {
  Row key;
  std::size_t hash = 0;
  std::size_t rep = kNoRow;  // first member's working row (bare refs, HAVING)
  std::vector<Accumulator> accumulators;
};

class GroupHashTable {
 public:
  GroupHashTable() : slots_(64, 0), mask_(63) {}

  /// Find the entry for the borrowed `key`, inserting the entry that
  /// `make_entry(hash)` builds (owning a copy of the key) when absent.
  template <typename MakeEntry>
  GroupEntry& find_or_insert(const BorrowedKey& key, MakeEntry&& make_entry) {
    if ((entries_.size() + 1) * 4 >= slots_.size() * 3) grow();  // ~0.75 load
    const std::size_t h = hash_values(
        key.size(), [&](std::size_t i) -> const Value& { return *key[i]; });
    std::size_t i = h & mask_;
    for (;;) {
      const std::uint32_t s = slots_[i];
      if (s == 0) {
        entries_.push_back(make_entry(h));
        slots_[i] = static_cast<std::uint32_t>(entries_.size());
        return entries_.back();
      }
      GroupEntry& e = entries_[s - 1];
      auto same = [](const Value& a, const Value* b) { return a.compare(*b) == 0; };
      if (e.hash == h && std::equal(e.key.begin(), e.key.end(), key.begin(), same)) {
        return e;
      }
      i = (i + 1) & mask_;
    }
  }

  std::vector<GroupEntry>& entries() { return entries_; }

 private:
  void grow() {
    slots_.assign(slots_.size() * 2, 0);
    mask_ = slots_.size() - 1;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t i = entries_[e].hash & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = static_cast<std::uint32_t>(e + 1);
    }
  }

  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty
  std::size_t mask_;
  std::vector<GroupEntry> entries_;   // insertion (= output) order
};

/// The FROM/JOIN/WHERE output, late-materialized: a working row is one
/// `const Row*` per source (nullptr for LEFT OUTER padding), and no value
/// is copied until the projection writes it out. The pointers are table
/// row versions, which stay put for the whole statement (table.h: only
/// vacuum() frees versions, under full exclusion), or rows of the views
/// and system tables this statement materialized, which it owns here.
struct WorkingSet {
  std::vector<BoundColumn> layout;
  std::size_t width = 0;         // sources per working row
  std::size_t count = 0;         // working rows
  std::vector<const Row*> refs;  // count x width, row-major
  /// Tables materialized from views for the duration of this query.
  std::vector<std::unique_ptr<Table>> owned_tables;

  SourceRows row(std::size_t i) const {
    return SourceRows(refs.data() + i * width, width);
  }
};

/// Resolve a FROM/JOIN name: a system table snapshotted from the telemetry
/// registry, a real table directly, or a view materialized into a temporary
/// untyped table by executing its stored SELECT. A depth guard catches
/// self-referential view chains.
Table& resolve_table(Database& db, const std::string& name, WorkingSet& ws) {
  if (is_system_table_name(name)) {
    ws.owned_tables.push_back(materialize_system_table(name, &db));
    return *ws.owned_tables.back();
  }
  if (!db.has_view(name)) return db.table(name);

  thread_local int view_depth = 0;
  if (view_depth > 16) {
    throw DbError("view expansion too deep (cycle?) at " + name);
  }
  ++view_depth;
  ResultSetData data;
  try {
    // Views were validated placeholder-free at CREATE VIEW time.
    data = db.execute(db.view_sql(name), {});
  } catch (...) {
    --view_depth;
    throw;
  }
  --view_depth;

  TableSchema schema(name);
  for (const auto& column : data.column_names) {
    ColumnDef def;
    def.name = column;  // untyped: values stored as produced
    def.type = ValueType::kNull;
    schema.add_column(std::move(def));
  }
  auto materialized = std::make_unique<Table>(std::move(schema));
  const auto width = static_cast<std::ptrdiff_t>(data.width());
  for (std::size_t i = 0; i < data.row_count(); ++i) {
    const auto first = data.cells.begin() + static_cast<std::ptrdiff_t>(i) * width;
    materialized->insert(Row(std::make_move_iterator(first),
                             std::make_move_iterator(first + width)));
  }
  ws.owned_tables.push_back(std::move(materialized));
  return *ws.owned_tables.back();
}

/// FROM + JOIN + WHERE: produce the working rows and the column layout.
WorkingSet build_working_set(Database& db, SelectStatement& stmt,
                             const Params& params, StatementRecord* explain,
                             StatementRecord& record) {
  const ExecutorTuning tuning = db.executor_tuning();
  const bool own = explain != nullptr;
  // The statement's MVCC snapshot: pinned once, used for every row
  // resolution below, so the whole SELECT sees one consistent state no
  // matter what commits concurrently.
  const ReadView view = db.read_view();
  WorkingSet ws;
  if (!stmt.from) {
    if (explain) explain->add("from: none");
    ws.count = 1;  // one empty row: SELECT 1+1
    if (stmt.where) {
      bind_expr(*stmt.where, ws.layout);
      if (!is_truthy(eval_expr(*stmt.where, ws.row(0), params))) ws.count = 0;
    }
    return ws;
  }

  Table& base = resolve_table(db, stmt.from->table, ws);
  const std::string base_alias = util::to_lower(stmt.from->alias);
  for (const auto& column : base.schema().columns()) {
    ws.layout.push_back({base_alias, column.name, 0});
  }
  ws.width = 1;
  // Predicate push-down. Without joins the whole WHERE binds against the
  // base layout and drives index selection. With joins, each AND-conjunct
  // that references only base columns is bound, used for index selection,
  // and applied before the join (sound under three-valued logic: a row on
  // which any conjunct is not truthy cannot satisfy the full conjunction).
  const Expr* base_where = nullptr;
  std::vector<Expr*> pushed;
  AccessPath path;
  {
    PhaseScope plan_phase(telemetry::Phase::kPlan, &record);
    if (stmt.where) {
      if (stmt.joins.empty()) {
        bind_expr(*stmt.where, ws.layout);
        base_where = stmt.where.get();
      } else {
        std::vector<Expr*> conjuncts;
        split_conjuncts(*stmt.where, conjuncts);
        for (Expr* conjunct : conjuncts) {
          try {
            bind_expr(*conjunct, ws.layout);
            pushed.push_back(conjunct);
          } catch (const DbError&) {
            // References a joined table's columns; evaluated post-join.
          }
        }
      }
    }

    // Index selection over everything known about the base table (the whole
    // WHERE, or the pushed conjuncts — all of them are ANDed).
    std::vector<IndexPredicate> predicates;
    if (base_where != nullptr) {
      collect_index_predicates(*base_where, params, predicates);
    } else {
      for (const Expr* conjunct : pushed) {
        collect_index_predicates(*conjunct, params, predicates);
      }
    }
    path = choose_access_path(base, predicates);
  }
  if (explain) {
    explain->add("from " + base_alias + ": " + describe_access_path(base, path));
  }
  const auto from_start = record.op_start(own);
  std::uint64_t from_rows_in = 0;
  auto consider = [&](const Row& row) {
    record.poll();
    const Row* one = &row;
    for (const Expr* conjunct : pushed) {
      if (!is_truthy(eval_expr(*conjunct, SourceRows(&one, 1), params))) return;
    }
    ws.refs.push_back(&row);
  };
  if (path.kind == AccessPath::Kind::kScan) {
    // The scan already resolves each slot's visible version: build the
    // working set in that one walk.
    ws.refs.reserve(base.live_row_count());
    base.scan(view, [&](RowId, const Row& row) {
      ++from_rows_in;
      consider(row);
    });
  } else {
    const std::vector<RowId> candidates = fetch_access_path(base, path, view);
    from_rows_in = candidates.size();
    ws.refs.reserve(candidates.size());
    for (const Row* row : base.fetch_many(candidates, view)) {
      if (row != nullptr) consider(*row);
    }
  }
  ws.count = ws.refs.size();
  record.op_end(own, "from " + base_alias, from_start, from_rows_in, ws.count);

  // Joins. An equi-join conjunct (existing_col = right_col) in the ON
  // clause selects an index-nested-loop when the right side has an index
  // on its key and few enough left rows probe it (index_probe_is_cheaper),
  // else a build/probe hash join built on the smaller side. Without an
  // equi conjunct, or with hash joins disabled, the join falls back to the
  // index-nested-loop when the right key is indexed and a plain nested
  // loop otherwise. NULL keys never match (SQL '='), and the non-equi
  // remainder of the ON clause is evaluated per pair. Every strategy
  // appends the right row's pointer to the left row's pointers.
  for (auto& join : stmt.joins) {
    const auto join_start = record.op_start(own);
    const std::uint64_t join_rows_in = ws.count;
    std::uint64_t join_entries = 0;   // hash-build entries (0 on fallback)
    std::uint64_t join_mem = 0;       // peak bytes charged by the build
    bool join_degraded = false;       // hash build abandoned under pressure
    Table& right = resolve_table(db, join.table.table, ws);
    const std::string right_alias = util::to_lower(join.table.alias);
    const std::size_t r = ws.width;  // the right side's source
    std::vector<BoundColumn> new_layout = ws.layout;
    for (const auto& column : right.schema().columns()) {
      new_layout.push_back({right_alias, column.name, r});
    }
    bind_expr(*join.on, new_layout);

    // Find one equi-join conjunct across the boundary; the rest of the ON
    // conjunction becomes a residual filter.
    std::vector<Expr*> on_conjuncts;
    split_conjuncts(*join.on, on_conjuncts);
    std::size_t left_source = 0;
    std::size_t left_column = 0;
    std::size_t right_key = static_cast<std::size_t>(-1);
    const Expr* equi = nullptr;
    for (const Expr* c : on_conjuncts) {
      if (c->kind != ExprKind::kBinary || c->op != "=" ||
          c->children[0]->kind != ExprKind::kColumnRef ||
          c->children[1]->kind != ExprKind::kColumnRef) {
        continue;
      }
      const Expr* left_ref = c->children[0].get();
      const Expr* right_ref = c->children[1].get();
      if (left_ref->resolved_source == r) std::swap(left_ref, right_ref);
      if (left_ref->resolved_source < r && right_ref->resolved_source == r) {
        left_source = left_ref->resolved_source;
        left_column = left_ref->resolved_index;
        right_key = right_ref->resolved_index;
        equi = c;
        break;
      }
    }
    std::vector<const Expr*> residual;
    for (const Expr* c : on_conjuncts) {
      if (c != equi) residual.push_back(c);
    }
    // Left row i's join key, or nullptr when its source is NULL padding.
    auto left_key = [&](std::size_t i) -> const Value* {
      const Row* row = ws.refs[i * r + left_source];
      return row != nullptr ? &(*row)[left_column] : nullptr;
    };
    // Whether every conjunct holds on left row i joined to `right_row`.
    std::vector<const Row*> pair(r + 1);
    auto passes = [&](const std::vector<const Expr*>& conjuncts, std::size_t i,
                      const Row* right_row) {
      if (conjuncts.empty()) return true;
      std::copy_n(ws.refs.begin() + i * r, r, pair.begin());
      pair[r] = right_row;
      for (const Expr* c : conjuncts) {
        if (!is_truthy(eval_expr(*c, SourceRows(pair), params))) return false;
      }
      return true;
    };
    std::vector<const Row*> joined;
    auto emit = [&](std::size_t i, const Row* right_row) {
      joined.insert(joined.end(), ws.refs.begin() + i * r,
                    ws.refs.begin() + (i + 1) * r);
      joined.push_back(right_row);  // nullptr: LEFT OUTER padding
    };

    const bool right_indexed = equi != nullptr && right.has_index(right_key);
    bool hash_join = equi != nullptr && tuning.hash_join &&
                     !(right_indexed && index_probe_is_cheaper(
                                            ws.count, right.live_row_count()));
    if (hash_join) {
      // The build table charges the statement's memory budget as it
      // grows; a soft breach abandons the hash strategy (the partially
      // built state is discarded and released) and the join falls
      // through to the nested-loop path below.
      ScopedMemCharge mem(record);
      bool degraded = false;
      const bool build_left = ws.count < right.live_row_count();
      if (explain) {
        explain->add("join " + right_alias + ": hash build=" +
                     (build_left ? std::string("left") : std::string("right")));
      }
      if (build_left) {
        // Build on the (smaller) left side, stream the right side through
        // it once. Matches are buffered per left row so the output keeps
        // the nested-loop's left-major order (and LEFT OUTER padding
        // still sees per-left-row match state).
        std::unordered_map<const Value*, std::vector<std::size_t>, ValueRefHash,
                           ValueRefEqual>
            table;
        table.reserve(ws.count);
        for (std::size_t i = 0; i < ws.count; ++i) {
          record.poll();
          const Value* key = left_key(i);
          if (key == nullptr || key->is_null()) continue;
          if (!mem.charge(kHashEntryBytes)) {
            degraded = true;
            break;
          }
          table[key].push_back(i);
        }
        join_entries = table.size();
        if (!degraded) {
          std::vector<std::vector<const Row*>> matches(ws.count);
          right.scan(view, [&](RowId, const Row& right_row) {
            record.poll();
            const Value& key = right_row[right_key];
            if (key.is_null()) return;
            auto it = table.find(&key);
            if (it == table.end()) return;
            for (std::size_t i : it->second) {
              if (passes(residual, i, &right_row)) {
                matches[i].push_back(&right_row);
              }
            }
          });
          for (std::size_t i = 0; i < ws.count; ++i) {
            record.poll();
            if (matches[i].empty() && join.left_outer) emit(i, nullptr);
            for (const Row* right_row : matches[i]) emit(i, right_row);
          }
        }
      } else {
        // Build on the right side, probe with each left row in order.
        std::unordered_map<const Value*, std::vector<const Row*>, ValueRefHash,
                           ValueRefEqual>
            table;
        table.reserve(right.live_row_count());
        right.scan(view, [&](RowId, const Row& right_row) {
          if (degraded) return;
          record.poll();
          const Value& key = right_row[right_key];
          if (key.is_null()) return;
          if (!mem.charge(kHashEntryBytes)) {
            degraded = true;
            return;
          }
          table[&key].push_back(&right_row);
        });
        join_entries = table.size();
        if (!degraded) {
          joined.reserve(ws.count * (r + 1));
          for (std::size_t i = 0; i < ws.count; ++i) {
            record.poll();
            bool matched = false;
            const Value* key = left_key(i);
            if (key != nullptr && !key->is_null()) {
              auto it = table.find(key);
              if (it != table.end()) {
                for (const Row* right_row : it->second) {
                  if (passes(residual, i, right_row)) {
                    emit(i, right_row);
                    matched = true;
                  }
                }
              }
            }
            if (!matched && join.left_outer) emit(i, nullptr);
          }
        }
      }
      join_mem = mem.charged();
      join_degraded = degraded;
      if (degraded) {
        record.note_mem_degraded();
        if (explain) explain->add("join " + right_alias + ": mem-degraded");
        joined.clear();
        hash_join = false;
      }
    }
    if (!hash_join) {
      if (explain) {
        explain->add("join " + right_alias + ": " +
                     (right_indexed ? "index-nested-loop" : "nested-loop"));
      }
      const std::vector<const Expr*> whole_on{join.on.get()};
      for (std::size_t i = 0; i < ws.count; ++i) {
        record.poll();
        bool matched = false;
        if (right_indexed) {
          const Value* key = left_key(i);
          if (key != nullptr && !key->is_null()) {
            auto hits = right.index_equal(right_key, *key);
            for (const Row* right_row : right.fetch_many(*hits, view)) {
              // The index may name a slot whose visible version carries
              // another key; only a row equal on the key is a match.
              if (right_row != nullptr && (*right_row)[right_key] == *key &&
                  passes(residual, i, right_row)) {
                emit(i, right_row);
                matched = true;
              }
            }
          }
        } else {
          right.scan(view, [&](RowId, const Row& right_row) {
            record.poll();
            if (passes(whole_on, i, &right_row)) {
              emit(i, &right_row);
              matched = true;
            }
          });
        }
        if (!matched && join.left_outer) emit(i, nullptr);
      }
    }
    ws.refs = std::move(joined);
    ws.width = r + 1;
    ws.count = ws.refs.size() / ws.width;
    ws.layout = std::move(new_layout);
    record.op_end(own, "join " + right_alias, join_start, join_rows_in,
                  ws.count, join_entries, join_mem, join_degraded);
  }

  // WHERE over the working rows, for what was not applied below: the full
  // predicate over the base rows (index candidates are a superset), or,
  // after joins, the conjuncts that reference joined columns. The whole
  // WHERE is re-bound against the joined layout first, so a name that
  // the join made ambiguous is still reported.
  if (stmt.where) {
    const auto filter_start = record.op_start(own);
    const std::uint64_t filter_rows_in = ws.count;
    std::vector<const Expr*> remaining;
    if (stmt.joins.empty()) {
      remaining.push_back(stmt.where.get());
    } else {
      bind_expr(*stmt.where, ws.layout);
      std::vector<Expr*> conjuncts;
      split_conjuncts(*stmt.where, conjuncts);
      for (const Expr* c : conjuncts) {
        if (std::find(pushed.begin(), pushed.end(), c) == pushed.end()) {
          remaining.push_back(c);
        }
      }
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ws.count; ++i) {
      record.poll();
      const SourceRows row = ws.row(i);
      const bool keep = std::all_of(
          remaining.begin(), remaining.end(), [&](const Expr* c) {
            return is_truthy(eval_expr(*c, row, params));
          });
      if (!keep) continue;
      if (kept != i) {
        std::copy(row.begin(), row.end(), ws.refs.begin() + kept * ws.width);
      }
      ++kept;
    }
    ws.count = kept;
    ws.refs.resize(kept * ws.width);
    record.op_end(own, "filter", filter_start, filter_rows_in, ws.count);
  }
  return ws;
}

std::string default_column_name(const Expr* expr, std::size_t position) {
  if (expr == nullptr) return "col" + std::to_string(position);
  if (expr->kind == ExprKind::kColumnRef) return expr->column_name;
  if (expr->kind == ExprKind::kFunction) {
    return util::to_lower(expr->function_name);
  }
  return "col" + std::to_string(position);
}

/// Append the value of `expr` over `row` to `out`: copied straight from
/// the row when it is a column, moved in when it is computed.
void append_value(std::vector<Value>& out, const Expr& expr, SourceRows row,
                  const Params& params) {
  Value scratch;
  const Value& value = eval_ref(expr, row, params, scratch);
  if (&value == &scratch) {
    out.push_back(std::move(scratch));
  } else {
    out.push_back(value);
  }
}

/// Evaluate a LIMIT/OFFSET operand (integer literal or placeholder).
std::size_t eval_limit_operand(const Expr& e, const Params& params,
                               const char* clause) {
  static const Row kNoRow;
  const Value v = eval_expr(e, kNoRow, params);
  if (v.type() != ValueType::kInt || v.as_int() < 0) {
    throw DbError(std::string(clause) + " must be a non-negative integer, got " +
                  (v.is_null() ? std::string("NULL") : v.to_string()));
  }
  return static_cast<std::size_t>(v.as_int());
}

}  // namespace

ResultSetData execute_select(Database& db, SelectStatement& stmt,
                             const Params& params, StatementRecord* explain) {
  const ExecutorTuning tuning = db.executor_tuning();
  std::optional<StatementRecord> bare;
  StatementRecord& record = current_record(bare);
  const bool own = explain != nullptr;

  // Evaluate LIMIT/OFFSET up front: negative (or non-integer) operands are
  // errors, and a known bound enables the Top-K path below.
  std::optional<std::size_t> limit_count;
  std::optional<std::size_t> offset_count;
  if (stmt.limit) limit_count = eval_limit_operand(*stmt.limit, params, "LIMIT");
  if (stmt.offset) offset_count = eval_limit_operand(*stmt.offset, params, "OFFSET");

  WorkingSet ws = build_working_set(db, stmt, params, explain, record);

  // Expand '*' items into one column ref per working column.
  std::vector<const Expr*> output_exprs;  // parallel to output columns
  std::vector<ExprPtr> expanded;          // owns the expansion
  ResultSetData result;
  for (std::size_t i = 0; i < stmt.items.size(); ++i) {
    SelectItem& item = stmt.items[i];
    if (item.expr == nullptr) {
      std::size_t column = 0;
      for (std::size_t c = 0; c < ws.layout.size(); ++c) {
        if (c > 0 && ws.layout[c].source != ws.layout[c - 1].source) column = 0;
        auto ref = make_column(ws.layout[c].qualifier, ws.layout[c].name);
        ref->resolved_source = ws.layout[c].source;
        ref->resolved_index = column++;
        result.column_names.push_back(ws.layout[c].name);
        output_exprs.push_back(ref.get());
        expanded.push_back(std::move(ref));
      }
      continue;
    }
    bind_expr(*item.expr, ws.layout);
    result.column_names.push_back(
        item.alias.empty() ? default_column_name(item.expr.get(), i) : item.alias);
    output_exprs.push_back(item.expr.get());
  }

  // Detect aggregation.
  std::vector<Expr*> aggregate_nodes;
  for (const Expr* e : output_exprs) {
    auto found = find_aggregates(*const_cast<Expr*>(e));
    aggregate_nodes.insert(aggregate_nodes.end(), found.begin(), found.end());
  }
  if (stmt.having) {
    bind_expr(*stmt.having, ws.layout);
    auto found = find_aggregates(*stmt.having);
    aggregate_nodes.insert(aggregate_nodes.end(), found.begin(), found.end());
  }
  const bool aggregated = !aggregate_nodes.empty() || !stmt.group_by.empty();

  // ORDER BY keys: an output column (by position, or by alias), a
  // working-row column (plain queries) or an expression computed per row.
  // Only computed keys are stored with an output row; the others are read
  // in place. Keys resolve when the first row is produced, so a key that
  // cannot resolve fails only a statement that produces rows.
  const std::size_t width = output_exprs.size();
  struct SortKey {
    enum class Kind { kOutput, kColumn, kComputed };
    Kind kind = Kind::kComputed;
    std::size_t source = 0;        // kColumn
    std::size_t index = 0;         // output column, source column or slot
    const Expr* expr = nullptr;    // kComputed
  };
  std::vector<SortKey> sort_keys;
  std::size_t computed_keys = 0;
  auto resolve_sort_key = [&](const OrderItem& item) {
    const Expr& e = *item.expr;
    if (e.kind == ExprKind::kLiteral && e.literal.type() == ValueType::kInt) {
      // 1) positional: ORDER BY 2
      const std::int64_t pos = e.literal.as_int();
      if (pos < 1 || pos > static_cast<std::int64_t>(width)) {
        throw DbError("ORDER BY position out of range");
      }
      return SortKey{SortKey::Kind::kOutput, 0, static_cast<std::size_t>(pos - 1)};
    }
    if (e.kind == ExprKind::kColumnRef && e.table_qualifier.empty()) {
      // 2) alias of an output column
      for (std::size_t c = 0; c < width; ++c) {
        if (util::iequals(result.column_names[c], e.column_name)) {
          return SortKey{SortKey::Kind::kOutput, 0, c};
        }
      }
    }
    // 3) arbitrary expression over the working row (plain queries only)
    if (aggregated) {
      throw DbError("ORDER BY over aggregated queries must reference output "
                    "columns by alias or position");
    }
    bind_expr(*item.expr, ws.layout);
    if (e.kind == ExprKind::kColumnRef) {
      return SortKey{SortKey::Kind::kColumn, e.resolved_source, e.resolved_index};
    }
    return SortKey{SortKey::Kind::kComputed, 0, computed_keys++, &e};
  };

  // Produced rows live in `cells`, `width` values to a slot, with their
  // computed sort keys in `computed`: a value is copied once, when it is
  // projected into its slot, and only moved after that. Without ORDER BY
  // the slots are the output order. With it, `ordered` holds the kept
  // rows: all of them for the full sort, or the Top-K heap, whose beaten
  // rows' slots are reused. `seq` is the production order; using it as
  // the final tie-break makes both the full sort and the Top-K heap
  // reproduce std::stable_sort's ordering.
  std::vector<Value> cells;
  std::vector<Value> computed;
  std::size_t slots = 0;
  std::vector<std::size_t> free_slots;
  struct Produced {
    std::size_t slot = 0;
    std::size_t working = 0;  // the working row (kColumn sort keys)
    std::size_t seq = 0;
  };
  std::vector<Produced> ordered;

  static const Value kNull;
  auto sort_value = [&](const Produced& row, const SortKey& key) -> const Value& {
    switch (key.kind) {
      case SortKey::Kind::kOutput:
        return cells[row.slot * width + key.index];
      case SortKey::Kind::kColumn: {
        const Row* source = ws.refs[row.working * ws.width + key.source];
        return source != nullptr ? (*source)[key.index] : kNull;
      }
      case SortKey::Kind::kComputed:
        break;
    }
    return computed[row.slot * computed_keys + key.index];
  };
  auto output_less = [&](const Produced& a, const Produced& b) {
    for (std::size_t k = 0; k < sort_keys.size(); ++k) {
      int c = sort_value(a, sort_keys[k]).compare(sort_value(b, sort_keys[k]));
      if (stmt.order_by[k].descending) c = -c;
      if (c != 0) return c < 0;
    }
    return a.seq < b.seq;
  };

  // ORDER BY + LIMIT runs as a bounded Top-K heap: only the best
  // limit+offset rows are retained, so a top-10 query over 1M rows never
  // materializes the full sort.
  bool use_topk =
      tuning.top_k && !stmt.order_by.empty() && limit_count.has_value();
  const std::size_t keep =
      use_topk ? *limit_count + offset_count.value_or(0) : 0;

  // The heap's footprint is known up front (`keep` entries of values +
  // sort keys), so the budget check happens before any row is emitted;
  // a breach degrades to the plain full sort.
  ScopedMemCharge topk_mem(record);
  bool topk_degraded = false;
  if (use_topk && keep > 0) {
    const std::uint64_t estimate =
        static_cast<std::uint64_t>(keep) *
        (output_exprs.size() + stmt.order_by.size()) * kValueBytes;
    if (!topk_mem.charge(estimate)) {
      use_topk = false;
      topk_degraded = true;
      record.note_mem_degraded();
      if (explain) explain->add("order-by: top-k mem-degraded");
    }
  }

  // DISTINCT remembers each kept row by its slot. Slots are never reused
  // under DISTINCT, so every remembered row stays readable.
  auto slot_hash = [&](std::size_t slot) {
    return hash_values(width, [&](std::size_t i) -> const Value& {
      return cells[slot * width + i];
    });
  };
  auto slot_equal = [&](std::size_t a, std::size_t b) {
    for (std::size_t i = 0; i < width; ++i) {
      if (cells[a * width + i].compare(cells[b * width + i]) != 0) return false;
    }
    return true;
  };
  std::unordered_set<std::size_t, decltype(slot_hash), decltype(slot_equal)>
      distinct_seen(0, slot_hash, slot_equal);
  auto discard = [&](std::size_t slot) {
    if (!stmt.distinct) free_slots.push_back(slot);
  };
  std::size_t next_seq = 0;
  // Project one output row from working row `row` (and its sort keys),
  // then keep it or drop it.
  auto produce = [&](SourceRows row, std::size_t working) {
    std::size_t slot = 0;
    if (free_slots.empty()) {
      slot = slots++;
      for (const Expr* e : output_exprs) append_value(cells, *e, row, params);
      if (sort_keys.size() < stmt.order_by.size()) {  // the first row
        for (const auto& item : stmt.order_by) {
          sort_keys.push_back(resolve_sort_key(item));
        }
      }
      for (const SortKey& key : sort_keys) {  // kComputed slots are in order
        if (key.kind == SortKey::Kind::kComputed) {
          append_value(computed, *key.expr, row, params);
        }
      }
    } else {
      slot = free_slots.back();
      free_slots.pop_back();
      for (std::size_t c = 0; c < width; ++c) {
        cells[slot * width + c] = eval_expr(*output_exprs[c], row, params);
      }
      for (const SortKey& key : sort_keys) {
        if (key.kind == SortKey::Kind::kComputed) {
          computed[slot * computed_keys + key.index] =
              eval_expr(*key.expr, row, params);
        }
      }
    }
    if (stmt.distinct && !distinct_seen.insert(slot).second) {
      // A duplicate; under DISTINCT the newest slot is always the last.
      --slots;
      cells.resize(slots * width);
      computed.resize(slots * computed_keys);
      return;
    }
    const Produced produced{slot, working, next_seq++};
    if (stmt.order_by.empty()) return;
    if (!use_topk) {
      ordered.push_back(produced);
      return;
    }
    if (keep == 0) {  // LIMIT 0
      discard(slot);
      return;
    }
    if (ordered.size() < keep) {
      ordered.push_back(produced);
      std::push_heap(ordered.begin(), ordered.end(), output_less);
      return;
    }
    // Heap front is the worst retained row; replace it when beaten.
    if (!output_less(produced, ordered.front())) {
      discard(slot);
      return;
    }
    std::pop_heap(ordered.begin(), ordered.end(), output_less);
    discard(ordered.back().slot);
    ordered.back() = produced;
    std::push_heap(ordered.begin(), ordered.end(), output_less);
  };

  const auto produce_start = record.op_start(own);
  const std::uint64_t produce_rows_in = ws.count;
  std::uint64_t group_entries = 0;  // groups materialized (either strategy)
  std::uint64_t group_mem = 0;      // bytes charged by the hash strategy
  bool group_degraded = false;      // hash grouping fell back to ordered map

  if (!aggregated) {
    if (!use_topk) {
      cells.reserve(ws.count * width);
      if (!stmt.order_by.empty()) ordered.reserve(ws.count);
    }
    for (std::size_t i = 0; i < ws.count; ++i) {
      record.poll();
      produce(ws.row(i), i);
    }
  } else {
    for (auto& g : stmt.group_by) bind_expr(*g, ws.layout);

    auto make_accumulators = [&]() {
      std::vector<Accumulator> accumulators(aggregate_nodes.size());
      for (std::size_t a = 0; a < aggregate_nodes.size(); ++a) {
        accumulators[a].node = aggregate_nodes[a];
      }
      return accumulators;
    };
    Value scratch;
    auto accumulate = [&](std::vector<Accumulator>& accumulators, SourceRows row) {
      for (std::size_t a = 0; a < aggregate_nodes.size(); ++a) {
        Expr* node = aggregate_nodes[a];
        if (node->children.size() == 1 &&
            node->children[0]->kind == ExprKind::kStar) {
          ++accumulators[a].count;
          accumulators[a].any = true;
        } else {
          accumulators[a].add(eval_ref(*node->children[0], row, params, scratch));
        }
      }
    };
    // The row's group key, borrowed from the row where it is a column.
    std::vector<Value> key_scratch(stmt.group_by.size());
    BorrowedKey key(stmt.group_by.size());
    auto borrow_key = [&](SourceRows row) {
      for (std::size_t g = 0; g < stmt.group_by.size(); ++g) {
        key[g] = &eval_ref(*stmt.group_by[g], row, params, key_scratch[g]);
      }
    };
    // HAVING + projection for one finished group; the representative
    // working row serves bare column references.
    auto finish_group = [&](std::size_t rep,
                            const std::vector<Accumulator>& accumulators) {
      std::vector<Value> aggregate_values;
      aggregate_values.reserve(accumulators.size());
      for (const auto& acc : accumulators) aggregate_values.push_back(acc.result());

      const SourceRows rep_row = rep != kNoRow ? ws.row(rep) : SourceRows();

      AggregateRewrite rewrite(aggregate_nodes, aggregate_values);
      if (stmt.having && !is_truthy(eval_expr(*stmt.having, rep_row, params))) {
        return;
      }
      produce(rep_row, rep);
    };

    bool hash_group_by = tuning.hash_group_by;
    if (hash_group_by) {
      // Single pass: group keys hash into an open-addressing table whose
      // entries carry the accumulators inline. Groups come out in
      // first-seen order. Each new group charges the statement's memory
      // budget; a soft breach discards the table and degrades to the
      // ordered-map fallback below (which re-reads the working rows — it
      // is a two-pass strategy anyway).
      ScopedMemCharge mem(record);
      bool degraded = false;
      GroupHashTable groups;
      for (std::size_t i = 0; i < ws.count; ++i) {
        record.poll();
        const SourceRows row = ws.row(i);
        borrow_key(row);
        bool inserted = false;
        GroupEntry& entry = groups.find_or_insert(key, [&](std::size_t hash) {
          inserted = true;
          GroupEntry e;
          e.key = own_key(key);
          e.hash = hash;
          e.rep = i;
          e.accumulators = make_accumulators();
          return e;
        });
        if (inserted &&
            !mem.charge(kHashEntryBytes +
                        (entry.key.size() + entry.accumulators.size()) *
                            kValueBytes)) {
          degraded = true;
          break;
        }
        accumulate(entry.accumulators, row);
      }
      group_mem = mem.charged();
      group_degraded = degraded;
      if (degraded) {
        record.note_mem_degraded();
        if (explain) explain->add("group-by: mem-degraded");
        hash_group_by = false;
      } else {
        if (groups.entries().empty() && stmt.group_by.empty()) {
          // Aggregate over zero rows: one output row.
          GroupEntry e;
          e.accumulators = make_accumulators();
          groups.entries().push_back(std::move(e));
        }
        if (explain) {
          explain->add("group-by: hash groups=" +
                       std::to_string(groups.entries().size()));
        }
        group_entries = groups.entries().size();
        for (const auto& entry : groups.entries()) {
          record.poll();
          finish_group(entry.rep, entry.accumulators);
        }
      }
    }
    if (!hash_group_by) {
      // Fallback: ordered map of group keys (two passes, key-sorted
      // output), kept for parity testing and as the memory-degraded
      // strategy.
      std::map<Row, std::vector<std::size_t>> groups;
      for (std::size_t i = 0; i < ws.count; ++i) {
        record.poll();
        borrow_key(ws.row(i));
        groups[own_key(key)].push_back(i);
      }
      if (groups.empty() && stmt.group_by.empty()) {
        groups[Row{}] = {};  // aggregate over zero rows: one output row
      }
      if (explain) {
        explain->add("group-by: ordered groups=" + std::to_string(groups.size()));
      }
      group_entries = groups.size();
      for (auto& [group_key, members] : groups) {
        record.poll();
        std::vector<Accumulator> accumulators = make_accumulators();
        for (std::size_t i : members) accumulate(accumulators, ws.row(i));
        finish_group(members.empty() ? kNoRow : members.front(), accumulators);
      }
    }
  }

  if (aggregated) {
    record.op_end(own, "group-by", produce_start, produce_rows_in, next_seq,
                  group_entries, group_mem, group_degraded);
  } else {
    record.op_end(own, "project", produce_start, produce_rows_in, next_seq);
  }

  if (!stmt.order_by.empty()) {
    // rows_out < rows_in happens only on the Top-K path, which already
    // dropped beaten rows at emit time; the sort itself is row-preserving.
    const auto sort_start = record.op_start(own);
    if (use_topk) {
      std::sort_heap(ordered.begin(), ordered.end(), output_less);
      if (explain) {
        explain->add("order-by: top-k(" + std::to_string(keep) + ")");
      }
    } else {
      // `seq` tie-break makes the plain sort stable.
      std::sort(ordered.begin(), ordered.end(), output_less);
      if (explain) explain->add("order-by: sort");
    }
    record.op_end(own, "order-by", sort_start, next_seq, ordered.size(), 0,
                  topk_mem.charged(), topk_degraded);
  }

  const auto limit_start = record.op_start(own);
  const std::size_t kept = stmt.order_by.empty() ? next_seq : ordered.size();
  std::size_t begin = 0;
  std::size_t end = kept;
  if (offset_count) begin = std::min(end, *offset_count);
  if (limit_count) end = std::min(end, begin + *limit_count);

  const auto cell = [&](std::size_t slot) {
    return cells.begin() + static_cast<std::ptrdiff_t>(slot * width);
  };
  if (stmt.order_by.empty()) {
    // The slots are the output order: cut the range out in place.
    cells.resize(end * width);
    cells.erase(cells.begin(), cell(begin));
    result.cells = std::move(cells);
  } else {
    result.cells.reserve((end - begin) * width);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t slot = ordered[i].slot;
      result.cells.insert(result.cells.end(), std::make_move_iterator(cell(slot)),
                          std::make_move_iterator(cell(slot + 1)));
    }
  }
  if (limit_count || offset_count) {
    record.op_end(own, "limit", limit_start, kept, end - begin);
  }
  return result;
}

ResultSetData execute_explain(Database& db, SelectStatement& stmt,
                              const Params& params, bool analyze) {
  std::optional<StatementRecord> bare;
  StatementRecord& record = current_record(bare);
  if (analyze) record.arm_analyze();
  execute_select(db, stmt, params, record.claim_plan(true));
  // EXPLAIN ANALYZE's operator lines join the record's plan, which also
  // keeps the run in the slow-query ring (PERFDMF_SLOW_QUERIES).
  if (analyze) record.finish_analyze();
  ResultSetData out;
  out.column_names = {"plan"};
  out.cells.reserve(record.plan.size());
  for (const auto& line : record.plan) out.cells.emplace_back(line);
  return out;
}

}  // namespace perfdmf::sqldb
