// Seeded differential pin for the in-place row keys: distinct,
// union_distinct, set_equal, contains_all and HashIndex::find hash and
// compare cells straight from the tables' columns.  Each is checked against
// a test-local oracle keyed by std::vector<std::uint32_t> (the rows' symbol
// ids) at key widths 1, 2, 4, 5, 12 and 33, with duplicate rows, unequal
// row counts, and rows that differ only in their last column.  A routed
// `in` list with repeated literal tuples checks the probe side's duplicate
// skip against the naive executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "relational/database.hpp"
#include "relational/parser.hpp"
#include "relational/table.hpp"
#include "support/naive_exec.hpp"

namespace ccsql {
namespace {

using Ids = std::vector<std::uint32_t>;

constexpr std::size_t kWidths[] = {1, 2, 4, 5, 12, 33};

/// "<prefix><i>", appended (GCC 12's -Wrestrict misfires on `+`).
std::string text(const char* prefix, std::size_t i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

std::vector<std::string> names(std::size_t width) {
  std::vector<std::string> out;
  for (std::size_t j = 0; j < width; ++j) out.push_back(text("c", j));
  return out;
}

Ids ids_of(const Table& t, std::size_t r, const std::vector<std::size_t>& cols) {
  Ids ids;
  for (const std::size_t c : cols) ids.push_back(t.at(r, c).id());
  return ids;
}

Ids row_ids(const Table& t, std::size_t r) {
  Ids ids;
  for (std::size_t j = 0; j < t.column_count(); ++j) ids.push_back(t.at(r, j).id());
  return ids;
}

std::vector<Ids> rows_of(const Table& t) {
  std::vector<Ids> out;
  for (std::size_t r = 0; r < t.row_count(); ++r) out.push_back(row_ids(t, r));
  return out;
}

/// `rows` rows of `width` cells drawn from `domain` values each.  With
/// `last_only`, every column but the last holds one value, so rows differ
/// only in their last cell.
Table random_table(std::mt19937& rng, std::size_t width, std::size_t rows,
                   std::size_t domain, bool last_only) {
  Table t(Schema::of(names(width)));
  std::uniform_int_distribution<std::size_t> cell(0, domain - 1);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    for (std::size_t j = 0; j < width; ++j) {
      const bool fixed = last_only && j + 1 < width;
      row.push_back(V(text("v", fixed ? 0 : cell(rng))));
    }
    t.append(row);
  }
  return t;
}

/// Some of `t`'s rows, shuffled, with repeats: the same row set when
/// `every` keeps each row at least once.
Table resample(std::mt19937& rng, const Table& t, bool every) {
  std::vector<std::uint32_t> sel;
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    if (every || rng() % 3 != 0) sel.push_back(static_cast<std::uint32_t>(r));
    if (rng() % 2 == 0) sel.push_back(static_cast<std::uint32_t>(r));
  }
  std::shuffle(sel.begin(), sel.end(), rng);
  return t.gather(sel);
}

/// First occurrences, in order.
std::vector<Ids> first_occurrences(const std::vector<Ids>& rows) {
  std::set<Ids> seen;
  std::vector<Ids> out;
  for (const Ids& r : rows) {
    if (seen.insert(r).second) out.push_back(r);
  }
  return out;
}

void check_sets(const Table& a, const Table& b, const std::string& what) {
  const std::vector<Ids> ra = rows_of(a);
  const std::vector<Ids> rb = rows_of(b);
  const std::set<Ids> sa(ra.begin(), ra.end());
  const std::set<Ids> sb(rb.begin(), rb.end());
  EXPECT_EQ(rows_of(a.distinct()), first_occurrences(ra)) << what;
  std::vector<Ids> both = ra;
  both.insert(both.end(), rb.begin(), rb.end());
  EXPECT_EQ(rows_of(Table::union_distinct(a, b)), first_occurrences(both))
      << what;
  EXPECT_EQ(a.set_equal(b), sa == sb) << what;
  EXPECT_EQ(b.set_equal(a), sa == sb) << what;
  EXPECT_EQ(a.contains_all(b),
            std::includes(sa.begin(), sa.end(), sb.begin(), sb.end()))
      << what;
  EXPECT_EQ(b.contains_all(a),
            std::includes(sb.begin(), sb.end(), sa.begin(), sa.end()))
      << what;
}

TEST(RowSet, SetOperationsMatchOracle) {
  std::size_t equal_cases = 0;
  for (std::uint32_t seed = 0; seed < 24; ++seed) {
    std::mt19937 rng(seed);
    for (const std::size_t width : kWidths) {
      const bool last_only = seed % 3 == 0;
      const std::size_t domain = 2 + seed % 4;
      const Table a = random_table(rng, width, rng() % 120, domain, last_only);
      const std::string what =
          "seed " + std::to_string(seed) + " width " + std::to_string(width);
      // The same rows reordered and repeated; a subset of them; an
      // unrelated table of another size.
      const Table same = resample(rng, a, /*every=*/true);
      equal_cases += a.set_equal(same) ? 1 : 0;
      check_sets(a, same, what + " same");
      check_sets(a, resample(rng, a, /*every=*/false), what + " subset");
      check_sets(a, random_table(rng, width, rng() % 80, domain, last_only),
                 what + " other");
    }
  }
  EXPECT_EQ(equal_cases, 24u * std::size(kWidths));
}

TEST(RowSet, IndexFindMatchesOracle) {
  for (std::uint32_t seed = 0; seed < 24; ++seed) {
    std::mt19937 rng(seed + 100);
    for (const std::size_t width : kWidths) {
      const Table t =
          random_table(rng, width + 1, 1 + rng() % 300, 2 + seed % 3,
                       /*last_only=*/seed % 3 == 0);
      // Key on `width` columns, last column first when it varies most.
      std::vector<std::size_t> cols(width);
      for (std::size_t p = 0; p < width; ++p) cols[p] = width - p;
      std::map<Ids, std::vector<std::size_t>> oracle;
      for (std::size_t r = 0; r < t.row_count(); ++r) {
        oracle[ids_of(t, r, cols)].push_back(r);
      }
      const HashIndex& idx = t.index_on(cols);
      const std::string what =
          "seed " + std::to_string(seed) + " width " + std::to_string(width);
      EXPECT_EQ(idx.key_count(), oracle.size()) << what;
      EXPECT_EQ(idx.row_count(), t.row_count()) << what;
      std::vector<Value> key(width);
      for (const auto& [ids, rows] : oracle) {
        for (std::size_t p = 0; p < width; ++p) key[p] = t.at(rows[0], cols[p]);
        const std::span<const std::uint32_t> found = idx.find(key);
        EXPECT_EQ(std::vector<std::size_t>(found.begin(), found.end()), rows)
            << what;
      }
      // A key whose last cell is outside the table's values is absent.
      key.back() = V("absent");
      EXPECT_TRUE(idx.find(key).empty()) << what;
    }
  }
}

/// `b.k in (a.p, a.q, a.p, v1, v1)` repeats a left column and a literal,
/// and a.p = a.q repeats a tuple by value: each right row is picked once.
TEST(RowSet, RoutedInListSkipsRepeatedTuples) {
  for (std::uint32_t seed = 0; seed < 8; ++seed) {
    std::mt19937 rng(seed + 200);
    Database db;
    Table l(Schema::of({"p", "q"}));
    Table r(Schema::of({"k", "w"}));
    std::uniform_int_distribution<std::size_t> cell(0, 3);
    for (std::size_t i = 0; i < 40; ++i) {
      l.append({V(text("v", cell(rng))), V(text("v", cell(rng)))});
    }
    for (std::size_t i = 0; i < 60; ++i) {
      r.append({V(text("v", cell(rng))), V(text("w", i))});
    }
    db.put("L", std::move(l));
    db.put("R", std::move(r));
    const SelectStmt stmt = parse_select(
        "select a.p, a.q, b.k, b.w from L a, R b "
        "where b.k in (a.p, a.q, a.p, v1, v1)");
    const QueryResult got = db.query(stmt);
    const Table want = naive::run(db, stmt);
    EXPECT_GT(want.row_count(), 0u);
    EXPECT_EQ(rows_of(got.rows), rows_of(want)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ccsql
