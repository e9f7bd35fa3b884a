// Directed tests of Table's ordered (key, slot) indexes under MVCC: every
// lookup must return each candidate slot exactly once, in ascending order,
// however versions and slot reuse have layered keys onto a slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "sqldb/table.h"
#include "util/error.h"

using namespace perfdmf::sqldb;

namespace {

constexpr std::size_t kId = 0;
constexpr std::size_t kKey = 1;

// Table t (id INTEGER PRIMARY KEY, key <key_type>) with an index on key.
std::unique_ptr<Table> make_table(ValueType key_type, bool unique_key) {
  TableSchema schema("t");
  schema.add_column({"id", ValueType::kInt, true, true, false, Value()});
  schema.add_column({"key", key_type, false, false, false, Value()});
  auto table = std::make_unique<Table>(std::move(schema));
  table->create_index(kKey, unique_key);
  return table;
}

Value num(std::int64_t v) { return Value(v); }

// Runs each mutation as its own committed write unit, the way an
// autocommit statement does, so versions and deletes carry real stamps.
class Writer {
 public:
  RowId insert(Table& t, Row row) {
    CommitStamp& s = open();
    const RowId id = t.insert(std::move(row), &s, view_of(s));
    close(s);
    return id;
  }
  void update(Table& t, RowId id, Row row) {
    CommitStamp& s = open();
    t.update(id, std::move(row), &s, view_of(s));
    close(s);
  }
  void erase(Table& t, RowId id) {
    CommitStamp& s = open();
    t.erase(id, &s, view_of(s));
    close(s);
  }

 private:
  CommitStamp& open() {
    CommitStamp& s = stamps_.emplace_back();
    s.token = stamps_.size();
    return s;
  }
  ReadView view_of(const CommitStamp& s) const { return ReadView{ts_, s.token}; }
  void close(CommitStamp& s) { s.ts.store(++ts_); }

  std::deque<CommitStamp> stamps_;  // outlive the versions they stamp
  std::uint64_t ts_ = 0;
};

Row row(std::int64_t id, Value key) { return Row{num(id), std::move(key)}; }

std::vector<RowId> equal(const Table& t, const Value& key) {
  return t.index_equal(kKey, key).value();
}

std::vector<RowId> range(const Table& t, std::optional<Value> lo,
                         std::optional<Value> hi, bool lo_inclusive,
                         bool hi_inclusive) {
  return t.index_range(kKey, lo, hi, lo_inclusive, hi_inclusive).value();
}

}  // namespace

TEST(TableIndex, KeyChangedAndChangedBackListsTheSlotOnce) {
  auto table = make_table(ValueType::kInt, false);
  Table& t = *table;
  Writer w;
  const RowId a = w.insert(t, row(1, num(10)));
  const RowId b = w.insert(t, row(2, num(20)));
  w.update(t, a, row(1, num(20)));
  w.update(t, a, row(1, num(10)));

  EXPECT_EQ(equal(t, num(10)), (std::vector<RowId>{a}));
  // `a` is a stale candidate under 20 (its old version); callers re-check.
  EXPECT_EQ(equal(t, num(20)), (std::vector<RowId>{a, b}));
  // `a` sits under both keys of the range but comes back once.
  EXPECT_EQ(range(t, num(10), num(20), true, true),
            (std::vector<RowId>{a, b}));
  EXPECT_EQ(range(t, std::nullopt, std::nullopt, true, true),
            (std::vector<RowId>{a, b}));
  EXPECT_EQ(t.row(a, ReadView::latest())[kKey], num(10));
}

TEST(TableIndex, InsertReusingADeletedSlotWithItsOldKeyListsItOnce) {
  auto table = make_table(ValueType::kInt, false);
  Table& t = *table;
  Writer w;
  const RowId first = w.insert(t, row(1, num(5)));
  const RowId other = w.insert(t, row(2, num(6)));
  w.erase(t, first);
  const RowId reused = w.insert(t, row(3, num(5)));
  ASSERT_EQ(reused, first);  // the committed-deleted slot was reused

  EXPECT_EQ(equal(t, num(5)), (std::vector<RowId>{reused}));
  EXPECT_EQ(range(t, num(5), num(6), true, true),
            (std::vector<RowId>{reused, other}));
  // The primary-key index keeps the old id as a stale candidate only.
  EXPECT_EQ(t.index_equal(kId, num(1)).value(), (std::vector<RowId>{reused}));
  EXPECT_EQ(t.index_equal(kId, num(3)).value(), (std::vector<RowId>{reused}));
  EXPECT_EQ(t.live_row_count(), 2u);
}

TEST(TableIndex, ManySlotsUnderOneKeyHonourInclusiveAndExclusiveBounds) {
  auto table = make_table(ValueType::kInt, false);
  Table& t = *table;
  Writer w;
  std::vector<RowId> below, at, above;  // slots with key 6, 7, 8
  for (std::int64_t i = 0; i < 900; ++i) {
    const std::int64_t key = 6 + i % 3;
    const RowId id = w.insert(t, row(i + 1, Value(key)));
    (key == 6 ? below : key == 7 ? at : above).push_back(id);
  }
  auto join = [](std::vector<RowId> x, const std::vector<RowId>& y) {
    x.insert(x.end(), y.begin(), y.end());
    std::sort(x.begin(), x.end());
    return x;
  };

  EXPECT_EQ(equal(t, num(7)), at);
  EXPECT_EQ(range(t, num(7), num(7), true, true), at);
  EXPECT_EQ(range(t, num(7), std::nullopt, false, true), above);
  EXPECT_EQ(range(t, std::nullopt, num(7), true, false), below);
  EXPECT_EQ(range(t, num(7), std::nullopt, true, true), join(at, above));
  EXPECT_EQ(range(t, std::nullopt, num(7), true, true), join(below, at));
  EXPECT_EQ(range(t, num(6), num(8), false, false), at);
  EXPECT_TRUE(range(t, num(7), num(7), false, true).empty());
  EXPECT_TRUE(range(t, num(7), num(7), true, false).empty());
  EXPECT_TRUE(equal(t, num(9)).empty());
}

TEST(TableIndex, IntegerAndEqualRealKeysDedupeUnderOneSlot) {
  // An untyped column stores values as given, so one slot can carry the
  // integer 3 in one version and the real 3.0 in the next. The two keys
  // compare equal, so the slot is indexed once under them.
  auto table = make_table(ValueType::kNull, false);
  Table& t = *table;
  Writer w;
  const RowId a = w.insert(t, row(1, num(3)));
  w.update(t, a, row(1, Value(3.0)));
  const RowId b = w.insert(t, row(2, Value(3.0)));

  EXPECT_EQ(equal(t, num(3)), (std::vector<RowId>{a, b}));
  EXPECT_EQ(equal(t, Value(3.0)), (std::vector<RowId>{a, b}));
  EXPECT_EQ(range(t, Value(2.5), num(3), true, true),
            (std::vector<RowId>{a, b}));
}

TEST(TableIndex, UniqueViolationIsStillDetectedAfterSlotReuse) {
  auto table = make_table(ValueType::kText, true);
  Table& t = *table;
  Writer w;
  const RowId a = w.insert(t, row(1, Value("x")));
  const RowId b = w.insert(t, row(2, Value("y")));
  w.erase(t, a);
  // The reused slot carries its old key "x" again: one index entry.
  ASSERT_EQ(w.insert(t, row(3, Value("x"))), a);
  EXPECT_EQ(equal(t, Value("x")), (std::vector<RowId>{a}));

  EXPECT_THROW(w.insert(t, row(4, Value("x"))), perfdmf::DbError);
  EXPECT_THROW(w.update(t, b, row(2, Value("x"))), perfdmf::DbError);
  // The deleted row's id and a key no live row holds are free again.
  const RowId c = w.insert(t, row(1, Value("z")));
  EXPECT_EQ(equal(t, Value("z")), (std::vector<RowId>{c}));
  EXPECT_EQ(t.live_row_count(), 3u);
}
