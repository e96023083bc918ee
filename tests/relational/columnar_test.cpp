// Round-trip tests for the columnar Table storage: ColumnView access,
// copy-on-write column sharing, zero-copy head/project/hcat, width-0
// (unit-row) semantics, and the memory accounting that rides along
// (HashIndex::memory_bytes under kIndexes, snapshot catalog copies under
// kTables).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/mem.hpp"
#include "relational/database.hpp"
#include "relational/table.hpp"
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

TEST(Columnar, ColumnSpansMatchAppendedRows) {
  Table t = small();
  ColumnView m = t.column(0);
  ColumnView s = t.column("s");
  ASSERT_EQ(m.size(), 3u);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(m[0], V("readex"));
  EXPECT_EQ(m[2], V("wb"));
  EXPECT_EQ(s[1], V("SI"));
  // Row and column views agree cell for cell.
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    EXPECT_EQ(t.row(r)[0], m[r]);
    EXPECT_EQ(t.row(r)[1], s[r]);
    EXPECT_EQ(t.at(r, 0), m[r]);
  }
}

TEST(Columnar, ColumnPtrsAreTheColumnData) {
  Table t = small();
  const std::vector<const Value*> ptrs = t.column_ptrs();
  ASSERT_EQ(ptrs.size(), 2u);
  EXPECT_EQ(ptrs[0], t.column(0).data());
  EXPECT_EQ(ptrs[1], t.column_data(1));
}

TEST(Columnar, CopySharesColumnsUntilWrite) {
  Table a = small();
  Table b = a;  // O(columns) copy: shared column vectors
  EXPECT_EQ(a.column_data(0), b.column_data(0));
  b.append({V("inv"), V("M")});  // COW: b clones, a untouched
  EXPECT_NE(a.column_data(0), b.column_data(0));
  EXPECT_EQ(a.row_count(), 3u);
  EXPECT_EQ(b.row_count(), 4u);
  EXPECT_EQ(a.column(0)[2], V("wb"));
  EXPECT_EQ(b.column(0)[3], V("inv"));
}

TEST(Columnar, HeadSharesColumnsAndTrims) {
  Table t = small();
  Table h = t.head(2);
  EXPECT_EQ(h.row_count(), 2u);
  // Zero-copy: head shares the column storage, only rows_ shrinks.
  EXPECT_EQ(h.column_data(0), t.column_data(0));
  EXPECT_EQ(h.column(0).size(), 2u);
  EXPECT_EQ(h.column(1)[1], V("SI"));
  // head beyond the row count is the identity.
  EXPECT_EQ(t.head(99).row_count(), 3u);
}

TEST(Columnar, ProjectSharesColumnStorage) {
  Table t = small();
  Table p = t.project({"s"}, /*distinct=*/false);
  EXPECT_EQ(p.column_count(), 1u);
  EXPECT_EQ(p.column_data(0), t.column_data(1));
}

TEST(Columnar, GatherRoundTrip) {
  Table t = small();
  const std::array<std::uint32_t, 4> sel{2, 0, 0, 1};
  Table g = t.gather(sel);
  ASSERT_EQ(g.row_count(), 4u);
  EXPECT_EQ(g.column(0)[0], V("wb"));
  EXPECT_EQ(g.column(0)[1], V("readex"));
  EXPECT_EQ(g.column(1)[3], V("SI"));
}

// Gathering every row in order shares the columns: after guard routing a
// solver step keeps each prefix row once, and its left gather used to copy
// the whole prefix.  A selection that skips, repeats or reorders a row
// still copies.
TEST(Columnar, IdentityGatherSharesColumns) {
  using Cat = obs::MemTracker::Category;
  const auto live = [] {
    return obs::MemTracker::global().usage(Cat::kTables).live;
  };
  const Table t = small();
  const std::uint64_t before = live();
  const std::array<std::uint32_t, 3> all{0, 1, 2};
  const Table g = t.gather(all);
  EXPECT_EQ(live(), before);
  ASSERT_EQ(g.row_count(), 3u);
  EXPECT_EQ(g.column_data(0), t.column_data(0));
  EXPECT_EQ(g.column_data(1), t.column_data(1));
  EXPECT_EQ(g.memory_bytes(), t.memory_bytes());
  for (const std::array<std::uint32_t, 3>& sel :
       {std::array<std::uint32_t, 3>{0, 2, 1},
        std::array<std::uint32_t, 3>{0, 1, 1}}) {
    const Table copy = t.gather(sel);
    EXPECT_NE(copy.column_data(0), t.column_data(0));
    EXPECT_EQ(copy.column(1)[1], t.column(1)[sel[1]]);
  }
  EXPECT_NE(t.gather(std::array<std::uint32_t, 2>{0, 1}).column_data(0),
            t.column_data(0));
  // A shared gather is copy-on-write like any copy.
  Table w = t.gather(all);
  w.append({V("inv"), V("M")});
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_EQ(w.column(0)[3], V("inv"));
  // A head's identity gather shares too, and still reads only its rows.
  const Table h = t.head(2);
  const Table hg = h.gather(std::array<std::uint32_t, 2>{0, 1});
  EXPECT_EQ(hg.column_data(0), t.column_data(0));
  EXPECT_EQ(hg.row_count(), 2u);
}

TEST(Columnar, HcatZipsColumns) {
  Table a = small();
  Table b(Schema::of({"x"}));
  b.append({V("1")});
  b.append({V("2")});
  b.append({V("3")});
  Table h = Table::hcat(make_schema([&] {
                          auto cols = a.schema().columns();
                          cols.push_back(b.schema().column(0));
                          return cols;
                        }()),
                        a, b);
  EXPECT_EQ(h.column_count(), 3u);
  EXPECT_EQ(h.row_count(), 3u);
  // Both sides' columns are shared, not copied.
  EXPECT_EQ(h.column_data(0), a.column_data(0));
  EXPECT_EQ(h.column_data(2), b.column_data(0));
  EXPECT_EQ(h.at(1, 2), V("2"));
}

TEST(Columnar, UnionAllDoesNotDisturbSharedSource) {
  Table a = small();
  Table keep = a;  // holds a second reference to a's columns
  Table b(a.schema_ptr());
  b.append({V("rd"), V("S")});
  // union_distinct appends b's rows into a copy of a's columns before
  // deduplicating: copy-on-write must leave the shared source alone.
  Table u = Table::union_distinct(a, b);
  EXPECT_EQ(u.row_count(), 4u);
  EXPECT_EQ(keep.row_count(), 3u);
  EXPECT_EQ(a.row_count(), 3u);
  EXPECT_EQ(keep.column(0)[2], V("wb"));
  EXPECT_EQ(u.column(0)[3], V("rd"));
}

// Width-0 tables carry pure row multiplicity (the old unit_rows_).
TEST(Columnar, WidthZeroRowSemantics) {
  Table u = Table::unit();
  EXPECT_EQ(u.row_count(), 1u);
  EXPECT_EQ(u.column_count(), 0u);
  // Two unit rows: a two-row table projected to no columns.
  Table two(Schema::of({"n"}));
  two.append({V("1")});
  two.append({V("2")});
  Table uu = two.project({}, /*distinct=*/false);
  EXPECT_EQ(uu.row_count(), 2u);
  EXPECT_EQ(uu.column_count(), 0u);
  // distinct and union_distinct collapse to a single unit row.
  EXPECT_EQ(uu.distinct().row_count(), 1u);
  EXPECT_EQ(Table::union_distinct(uu, uu).row_count(), 1u);
  // select counts predicate passes over empty rows.
  Table kept = naive::select(uu, [](RowView r) { return r.empty(); });
  EXPECT_EQ(kept.row_count(), 2u);
  Table none = naive::select(uu, [](RowView) { return false; });
  EXPECT_EQ(none.row_count(), 0u);
  EXPECT_EQ(uu.head(1).row_count(), 1u);
}

TEST(Columnar, RowViewIteratesColumns) {
  Table t = small();
  RowView r = t.row(1);
  std::vector<Value> vals(r.begin(), r.end());
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], V("readex"));
  EXPECT_EQ(vals[1], V("SI"));
  // Flat-buffer RowView (append path) agrees with the gather view.
  const std::vector<Value> flat{V("readex"), V("SI")};
  RowView f(flat);
  EXPECT_TRUE(std::equal(r.begin(), r.end(), f.begin(), f.end()));
}

// HashIndex::memory_bytes is the sum of its arrays' capacities: key cells
// (keys x width ids), key hashes, slots (a power of two at load <= 1/2),
// row-list offsets (keys + 1) and row ids.  That figure is the kIndexes
// reservation, released when the last table holding the index dies.
TEST(Columnar, IndexMemoryIsItsArrays) {
  using Cat = obs::MemTracker::Category;
  const auto live = [] {
    return obs::MemTracker::global().usage(Cat::kIndexes).live;
  };
  const std::uint64_t before = live();
  {
    Table t(Schema::of({"a", "b", "c", "d", "e", "f"}));
    for (int i = 0; i < 100; ++i) {
      t.append({V(std::string("m").append(std::to_string(i % 37))), V("x"),
                V("y"), V("z"), V("w"), V("u")});
    }
    const std::vector<std::size_t> cols{0, 1, 2, 3, 4, 5};
    const HashIndex& idx = t.index_on(cols);
    const std::size_t keys = 37;
    ASSERT_EQ(idx.key_count(), keys);
    const std::size_t expect = keys * cols.size() * sizeof(Value) +
                               keys * sizeof(std::uint64_t) +
                               std::bit_ceil(2 * keys) * sizeof(std::uint32_t) +
                               (keys + 1) * sizeof(std::uint32_t) +
                               t.row_count() * sizeof(std::uint32_t);
    EXPECT_EQ(idx.memory_bytes(), expect);
    EXPECT_EQ(live() - before, expect);
  }
  EXPECT_EQ(live(), before);
}

// A snapshot's frozen catalog copy is tracked as kTables while any copy of
// the snapshot lives, and released with the last one.
TEST(Columnar, SnapshotCopyIsAccounted) {
  using Cat = obs::MemTracker::Category;
  Database db;
  db.put("t", small());
  const auto live = [] {
    return obs::MemTracker::global().usage(Cat::kTables).live;
  };
  const std::uint64_t before = live();
  {
    Snapshot s = db.snapshot();
    const std::uint64_t during = live();
    EXPECT_GT(during, before) << "frozen catalog copy must be tracked";
    // Copies of one snapshot share its frozen catalog: no double count.
    Snapshot s2 = s;
    EXPECT_EQ(live(), during);
  }
  EXPECT_EQ(live(), before);
}

TEST(Columnar, JoinIndexFindsEveryRowOnce) {
  Table t(Schema::of({"k", "v"}));
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    t.append({V(std::string("k").append(std::to_string(i % 257))),
              V(std::string("v").append(std::to_string(i)))});
  }
  const std::vector<std::size_t> cols{0};
  const HashIndex idx = HashIndex::build(t, cols);
  EXPECT_EQ(idx.key_count(), 257u);
  EXPECT_EQ(idx.row_count(), static_cast<std::size_t>(n));
  // Every row list is ascending (the determinism contract) and complete.
  std::size_t total = 0;
  for (int k = 0; k < 257; ++k) {
    const Value key = t.at(static_cast<std::size_t>(k), 0);
    const std::span<const std::uint32_t> rows = idx.find({&key, 1});
    ASSERT_FALSE(rows.empty());
    total += rows.size();
    for (std::size_t i = 1; i < rows.size(); ++i) {
      EXPECT_LT(rows[i - 1], rows[i]);
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(n));
  // Row ids are held as 4 bytes, as the engine carries them: the row
  // array is 80,000 B and the 257 keys' arrays add under 10 kB.
  EXPECT_GE(idx.memory_bytes(), n * sizeof(std::uint32_t));
  EXPECT_LT(idx.memory_bytes(), n * sizeof(std::uint32_t) + 10000);
}

}  // namespace
}  // namespace ccsql
