#include "relational/table.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/mem.hpp"
#include "plan/planner.hpp"
#include "relational/database.hpp"
#include "relational/error.hpp"
#include "relational/parser.hpp"
#include "support/naive_exec.hpp"

namespace ccsql {
namespace {

Table small() {
  Table t(Schema::of({"m", "s"}));
  t.append({V("readex"), V("I")});
  t.append({V("readex"), V("SI")});
  t.append({V("wb"), V("MESI")});
  return t;
}

/// A const table shared across threads, as a snapshot entry is: one thread
/// installs its indexes while another copies it (a serve writer copying the
/// table it is about to swap).  Copies read the cache pointer under the
/// cache mutex; the TSan CI leg flags the race if they do not.
TEST(Table, CopyWhileAnotherThreadInstallsIndexes) {
  Table t(Schema::of({"a", "b"}));
  for (int i = 0; i < 64; ++i) {
    t.append({V("copy_race" + std::to_string(i)), V(i % 2 == 0 ? "x" : "y")});
  }
  const Table& shared = t;
  std::thread indexer([&shared] {
    (void)shared.index_on({0});
    (void)shared.index_on({1});
    (void)shared.index_on({0, 1});
  });
  for (int i = 0; i < 200; ++i) {
    const Table copy = shared;
    EXPECT_EQ(copy.row_count(), 64u);
  }
  indexer.join();
  const Table copy = shared;
  EXPECT_TRUE(copy.has_cached_index({0}));
  EXPECT_TRUE(copy.has_cached_index({1}));
  EXPECT_TRUE(copy.has_cached_index({0, 1}));
  // The copy shares the one cache: it hands back the very same index.
  EXPECT_EQ(&copy.index_on({1}), &shared.index_on({1}));
}

/// A point lookup and a join whose right side is the same table and column
/// set probe one cached index: the table holds a single HashIndex, and it
/// is all the index memory the tracker sees.
TEST(Table, LookupAndJoinShareOneIndex) {
  using Cat = obs::MemTracker::Category;
  const obs::MemTracker& tracker = obs::MemTracker::global();
  const std::uint64_t before = tracker.usage(Cat::kIndexes).live;
  {
    Database db;
    Table d(Schema::of({"k", "v"}));
    for (int i = 0; i < 40; ++i) {
      d.append({V("share_k" + std::to_string(i % 8)),
                V("share_v" + std::to_string(i))});
    }
    db.put("D", std::move(d));
    Table p(Schema::of({"x"}));
    p.append({V("share_k3")});
    p.append({V("share_k5")});
    db.put("P", std::move(p));

    const plan::PlanPtr lookup = plan::plan_select(
        db, parse_select("select v from D where k = \"share_k3\""));
    ASSERT_EQ(lookup->child().kind, plan::PlanNode::Kind::kIndexLookup);
    EXPECT_EQ(plan::run_select(
                  db, parse_select("select v from D where k = \"share_k3\""))
                  .row_count(),
              5u);
    const plan::PlanPtr join = plan::plan_select(
        db, parse_select("select a.x, b.v from P a, D b where a.x = b.k"));
    ASSERT_EQ(join->child().kind, plan::PlanNode::Kind::kSelect);
    ASSERT_EQ(join->child().child().kind, plan::PlanNode::Kind::kCross);
    ASSERT_EQ(join->child().child().child(1).kind,
              plan::PlanNode::Kind::kScan);
    EXPECT_EQ(plan::run_select(
                  db, parse_select(
                          "select a.x, b.v from P a, D b where a.x = b.k"))
                  .row_count(),
              10u);

    const Table& base = db.get("D");
    EXPECT_TRUE(base.has_cached_index({0}));
    EXPECT_FALSE(base.has_cached_index({1}));
    EXPECT_FALSE(db.get("P").has_cached_index({0}));
    EXPECT_EQ(tracker.usage(Cat::kIndexes).live - before,
              base.index_on({0}).memory_bytes());
  }
  EXPECT_EQ(tracker.usage(Cat::kIndexes).live, before);
}

TEST(Table, AppendAndAccess) {
  Table t = small();
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_EQ(t.column_count(), 2u);
  EXPECT_EQ(t.at(0, 0), V("readex"));
  EXPECT_EQ(t.at(2, "s"), V("MESI"));
  RowView r = t.row(1);
  EXPECT_EQ(r[1], V("SI"));
}

TEST(Table, AppendArityChecked) {
  Table t = small();
  EXPECT_THROW(t.append({V("x")}), SchemaError);
}

TEST(Table, AppendTextsInternsAndNullsEmpty) {
  Table t(Schema::of({"a", "b"}));
  t.append_texts({"x", ""});
  EXPECT_EQ(t.at(0, 0), V("x"));
  EXPECT_TRUE(t.at(0, 1).is_null());
}

TEST(Table, UnitHasOneEmptyRow) {
  Table u = Table::unit();
  EXPECT_EQ(u.row_count(), 1u);
  EXPECT_EQ(u.column_count(), 0u);
}

TEST(Table, SelectFilters) {
  Table t = small();
  Table sel = naive::select(t, [](RowView r) { return r[0] == V("readex"); });
  EXPECT_EQ(sel.row_count(), 2u);
  EXPECT_EQ(sel.at(1, 1), V("SI"));
}

TEST(Table, ProjectReordersAndDeduplicates) {
  Table t = small();
  Table p = t.project({"m"});
  EXPECT_EQ(p.column_count(), 1u);
  EXPECT_EQ(p.row_count(), 2u);  // readex deduplicated
  Table pk = t.project({"m"}, /*distinct=*/false);
  EXPECT_EQ(pk.row_count(), 3u);
  Table sw = t.project({"s", "m"});
  EXPECT_EQ(sw.at(0, 0), V("I"));
  EXPECT_EQ(sw.at(0, 1), V("readex"));
}

TEST(Table, DistinctKeepsFirstOccurrence) {
  Table t(Schema::of({"a"}));
  t.append({V("x")});
  t.append({V("y")});
  t.append({V("x")});
  Table d = t.distinct();
  EXPECT_EQ(d.row_count(), 2u);
  EXPECT_EQ(d.at(0, 0), V("x"));
  EXPECT_EQ(d.at(1, 0), V("y"));
}

TEST(Table, CrossProduct) {
  Table a(Schema::of({"x"}));
  a.append({V("1")});
  a.append({V("2")});
  Table b(Schema::of({"y", "z"}));
  b.append({V("p"), V("q")});
  b.append({V("r"), V("s")});
  b.append({V("t"), V("u")});
  Table c = Table::cross(a, b);
  EXPECT_EQ(c.row_count(), 6u);
  EXPECT_EQ(c.column_count(), 3u);
  EXPECT_EQ(c.at(0, 0), V("1"));
  EXPECT_EQ(c.at(0, 2), V("q"));
  EXPECT_EQ(c.at(5, 0), V("2"));
  EXPECT_EQ(c.at(5, 1), V("t"));
}

TEST(Table, CrossWithUnitIsIdentity) {
  Table t = small();
  Table l = Table::cross(Table::unit(), t);
  Table r = Table::cross(t, Table::unit());
  EXPECT_TRUE(l.set_equal(t));
  EXPECT_TRUE(r.set_equal(t));
}

TEST(Table, CrossRejectsDuplicateNames) {
  Table a(Schema::of({"x"}));
  Table b(Schema::of({"x"}));
  EXPECT_THROW(Table::cross(a, b), SchemaError);
}

TEST(Table, UnionAllAndDistinct) {
  Table t = small();
  EXPECT_EQ(Table::union_distinct(t, t).row_count(), 3u);
  // Rows of both inputs survive, first occurrences kept in order.
  Table b(t.schema_ptr());
  b.append({V("wb"), V("MESI")});
  b.append({V("rd"), V("S")});
  Table u = Table::union_distinct(t, b);
  ASSERT_EQ(u.row_count(), 4u);
  EXPECT_EQ(u.at(2, 0), V("wb"));
  EXPECT_EQ(u.at(3, 0), V("rd"));
}

TEST(Table, UnionRequiresSameNames) {
  Table a(Schema::of({"x"}));
  Table b(Schema::of({"y"}));
  EXPECT_THROW(Table::union_distinct(a, b), SchemaError);
}

TEST(Table, ContainsAndContainsAll) {
  Table t = small();
  Table sub(t.schema_ptr());
  sub.append({V("wb"), V("MESI")});
  EXPECT_TRUE(t.contains_all(sub));
  EXPECT_FALSE(sub.contains_all(t));
  Table stranger(t.schema_ptr());
  stranger.append({V("readex"), V("nope")});
  EXPECT_FALSE(t.contains_all(stranger));
}

TEST(Table, SetEqualIgnoresOrderAndDuplicates) {
  Table a = small();
  Table b(a.schema_ptr());
  b.append({V("wb"), V("MESI")});
  b.append({V("readex"), V("SI")});
  b.append({V("readex"), V("I")});
  b.append({V("readex"), V("I")});
  EXPECT_TRUE(a.set_equal(b));
}

/// A row of the 33-column table below: all columns alternate x/y except
/// the inline first column `head` and the spilled last column "k<k>".
std::vector<Value> wide_row(int k, const char* head = "x") {
  std::vector<Value> row;
  row.push_back(V(head));
  for (int j = 1; j < 32; ++j) row.push_back(V(j % 2 == 0 ? "x" : "y"));
  row.push_back(V(std::string("k").append(std::to_string(k))));
  return row;
}

Table wide_table(std::initializer_list<int> ks) {
  std::vector<std::string> names;
  for (int j = 0; j < 33; ++j) {
    names.push_back(std::string("c").append(std::to_string(j)));
  }
  Table t(Schema::of(names));
  for (int k : ks) t.append(wide_row(k));
  return t;
}

// 33 columns — the extended directory's width: 4 ids pack inline and 29
// spill.  Duplicates on one side and unequal row counts must not fool the
// set comparisons.
TEST(Table, WideRowSetOperations) {
  const Table a = wide_table({0, 1, 2, 1, 3, 3});
  const Table b = wide_table({3, 2, 1, 0});
  const Table d = a.distinct();
  ASSERT_EQ(d.row_count(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(d.at(static_cast<std::size_t>(k), "c32"),
              V(std::string("k").append(std::to_string(k))));
  }
  EXPECT_TRUE(a.set_equal(b));
  EXPECT_TRUE(b.set_equal(a));
  EXPECT_TRUE(a.contains_all(b));
  EXPECT_TRUE(b.contains_all(a));

  // Every row of `c` is in `b`, but `b`'s k0 is not in `c`.
  const Table c = wide_table({1, 1, 2, 3, 3});
  EXPECT_TRUE(b.contains_all(c));
  EXPECT_FALSE(c.contains_all(b));
  EXPECT_FALSE(b.set_equal(c));
  EXPECT_FALSE(c.set_equal(b));

  // Tables differing in one inline cell, and in one spilled cell.
  Table inline_diff = wide_table({0, 1, 2});
  inline_diff.append(wide_row(3, "z"));
  EXPECT_FALSE(b.set_equal(inline_diff));
  EXPECT_FALSE(b.contains_all(inline_diff));
  const Table spill_diff = wide_table({0, 1, 2, 4});
  EXPECT_FALSE(b.set_equal(spill_diff));
  EXPECT_FALSE(spill_diff.contains_all(b));
}

TEST(Table, SortedIsCanonical) {
  Table a = small();
  Table b(a.schema_ptr());
  b.append({V("wb"), V("MESI")});
  b.append({V("readex"), V("I")});
  b.append({V("readex"), V("SI")});
  Table sa = a.sorted_by({"m", "s"}), sb = b.sorted_by({"m", "s"});
  ASSERT_EQ(sa.row_count(), sb.row_count());
  for (std::size_t i = 0; i < sa.row_count(); ++i) {
    RowView ra = sa.row(i), rb = sb.row(i);
    EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin()));
  }
}

TEST(Table, WithSchemaRealignsNames) {
  Table t = small();
  auto s2 = Schema::of({"m1", "s1"});
  Table t2 = t.with_schema(s2);
  EXPECT_EQ(t2.at(0, "m1"), V("readex"));
  EXPECT_THROW(t.with_schema(Schema::of({"one"})), SchemaError);
}

TEST(Table, ZeroColumnSelect) {
  Table u = Table::unit();
  Table kept = naive::select(u, [](RowView) { return true; });
  EXPECT_EQ(kept.row_count(), 1u);
  Table dropped = naive::select(u, [](RowView) { return false; });
  EXPECT_EQ(dropped.row_count(), 0u);
}

}  // namespace
}  // namespace ccsql
