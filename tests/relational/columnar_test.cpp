// Round-trip tests for the columnar Table storage: ColumnView access,
// copy-on-write column sharing, zero-copy head/project/hcat, width-0
// (unit-row) semantics, and the memory accounting that rides along
// (TupleKey overflow heap bytes in HashIndex::memory_bytes, snapshot
// catalog copies under kTables).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <set>
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

TEST(Columnar, BuildKeysMatchesOfRow) {
  // 6 key columns force TupleKey overflow (only 4 ids pack inline).
  Table t(Schema::of({"a", "b", "c", "d", "e", "f"}));
  for (int i = 0; i < 32; ++i) {
    t.append({V(std::string("k").append(std::to_string(i))), V("x"), V("y"),
              V("z"), V("w"),
              V(std::string("v").append(std::to_string(i % 3)))});
  }
  const std::vector<std::size_t> cols{0, 1, 2, 3, 4, 5};
  std::vector<TupleKey> keys(t.row_count());
  t.build_keys(cols, 0, t.row_count(), keys.data());
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    EXPECT_EQ(keys[r], TupleKey::of_row(t.row(r), cols));
    EXPECT_GT(keys[r].heap_bytes(), 0u) << "6-wide keys must overflow";
  }
}

// Column-at-a-time and row-at-a-time key building agree on every arity
// (5: one spilled id, 8: four, 33: the extended directory's full row), for
// whole-table and offset ranges, and a wide key's spill is one exact-size
// allocation.
TEST(Columnar, WideKeysMatchOfRowAtEveryArity) {
  for (const std::size_t arity : {std::size_t{5}, std::size_t{8},
                                  std::size_t{33}}) {
    std::vector<std::string> names;
    for (std::size_t j = 0; j < arity; ++j) {
      names.push_back(std::string("c").append(std::to_string(j)));
    }
    Table t(Schema::of(names));
    for (std::size_t r = 0; r < 12; ++r) {
      std::vector<Value> row;
      for (std::size_t j = 0; j < arity; ++j) {
        row.push_back(V(std::string("v").append(std::to_string((r + j) % 5))));
      }
      t.append(row);
    }
    std::vector<std::size_t> cols(arity);
    std::iota(cols.begin(), cols.end(), std::size_t{0});
    std::vector<TupleKey> keys(t.row_count());
    t.build_keys(cols, 0, t.row_count(), keys.data());
    std::vector<TupleKey> tail(t.row_count() - 5);
    t.build_keys(cols, 5, t.row_count(), tail.data());
    const std::size_t spill = (arity - 4) * sizeof(std::uint32_t);
    for (std::size_t r = 0; r < t.row_count(); ++r) {
      const TupleKey expect = TupleKey::of_row(t.row(r), cols);
      EXPECT_EQ(keys[r], expect) << arity << " row " << r;
      EXPECT_EQ(keys[r].hash(), expect.hash()) << arity << " row " << r;
      EXPECT_EQ(keys[r].heap_bytes(), spill) << arity;
      EXPECT_EQ(expect.heap_bytes(), spill) << arity;
      if (r >= 5) {
        EXPECT_EQ(tail[r - 5], expect) << arity << " row " << r;
        EXPECT_EQ(tail[r - 5].hash(), expect.hash()) << arity << " row " << r;
      }
    }
    // Rows 0 and 5 hold the same cells ((r + j) % 5 repeats every 5 rows).
    EXPECT_EQ(keys[0], keys[5]);
    EXPECT_FALSE(keys[0] == keys[1]);
  }
}

// HashIndex::memory_bytes must count TupleKey overflow allocations: a
// 6-column key spills two ids to the heap, so the wide index reports at
// least the narrow (inline-key) index over the same rows plus that spill.
TEST(Columnar, IndexMemoryCountsKeyOverflow) {
  Table t(Schema::of({"a", "b", "c", "d", "e", "f"}));
  for (int i = 0; i < 64; ++i) {
    t.append({V(std::string("k").append(std::to_string(i))), V("x"), V("y"),
              V("z"), V("w"), V("u")});
  }
  const std::vector<std::size_t> wide{0, 1, 2, 3, 4, 5};
  const std::vector<std::size_t> narrow{0, 1};
  // Both key sets are unique per row (column a is), so the two indexes
  // hold the same 64 keys and row lists; only the key payload differs.
  const HashIndex& wide_index = t.index_on(wide);
  const HashIndex& narrow_index = t.index_on(narrow);
  ASSERT_EQ(wide_index.key_count(), 64u);
  ASSERT_EQ(narrow_index.key_count(), 64u);
  std::size_t overflow = 0;
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    overflow += TupleKey::of_row(t.row(r), wide).heap_bytes();
  }
  EXPECT_GT(overflow, 0u);
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    EXPECT_EQ(TupleKey::of_row(t.row(r), narrow).heap_bytes(), 0u);
  }
  EXPECT_GE(wide_index.memory_bytes(), narrow_index.memory_bytes() + overflow);
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
  const int n = 20000;  // above the radix threshold
  for (int i = 0; i < n; ++i) {
    t.append({V(std::string("k").append(std::to_string(i % 257))),
              V(std::string("v").append(std::to_string(i)))});
  }
  const std::vector<std::size_t> cols{0};
  const HashIndex idx = HashIndex::build(t, cols, /*jobs=*/4);
  EXPECT_GT(idx.partitions(), 1u);
  EXPECT_EQ(idx.key_count(), 257u);
  EXPECT_EQ(idx.row_count(), static_cast<std::size_t>(n));
  // Every row list is ascending (the determinism contract) and complete.
  std::size_t total = 0;
  for (int k = 0; k < 257; ++k) {
    const TupleKey key =
        Table::index_key(t.row(static_cast<std::size_t>(k)), cols);
    const std::vector<std::size_t>* rows = idx.find(key);
    ASSERT_NE(rows, nullptr);
    total += rows->size();
    for (std::size_t i = 1; i < rows->size(); ++i) {
      EXPECT_LT((*rows)[i - 1], (*rows)[i]);
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(n));
  EXPECT_GT(idx.memory_bytes(), 0u);
}

}  // namespace
}  // namespace ccsql
