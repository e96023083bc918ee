// Property-style tests of relational-algebra identities on pseudo-random
// tables.  Seeds are the TEST_P parameter, so every sweep instance exercises
// a different table while staying reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "relational/format.hpp"
#include "relational/table.hpp"
#include "support/naive_exec.hpp"

namespace ccsql {
namespace {

Table random_table(std::mt19937& rng, std::vector<std::string> cols,
                   std::size_t rows, int alphabet) {
  Table t(Schema::of(std::move(cols)));
  std::uniform_int_distribution<int> dist(0, alphabet - 1);
  std::vector<Value> row(t.column_count());
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& v : row) {
      v = V(std::string("v").append(std::to_string(dist(rng))));
    }
    t.append(RowView(row));
  }
  return t;
}

class TableProperty : public ::testing::TestWithParam<unsigned> {
 protected:
  std::mt19937 rng_{GetParam()};
};

TEST_P(TableProperty, CrossCardinalityIsProduct) {
  Table a = random_table(rng_, {"a1", "a2"}, 7, 3);
  Table b = random_table(rng_, {"b1"}, 5, 3);
  Table c = Table::cross(a, b);
  EXPECT_EQ(c.row_count(), a.row_count() * b.row_count());
  EXPECT_EQ(c.column_count(), a.column_count() + b.column_count());
}

TEST_P(TableProperty, SelectThenProjectEqualsProjectThenSelect) {
  // When the predicate only touches projected columns, select and project
  // commute (as multisets).
  Table t = random_table(rng_, {"x", "y", "z"}, 40, 3);
  auto pred = [](RowView r) { return r[0] == V("v1"); };
  Table sp = naive::select(t, pred).project({"x", "y"}, /*distinct=*/false);
  auto pred2 = [](RowView r) { return r[0] == V("v1"); };
  Table ps =
      naive::select(t.project({"x", "y"}, /*distinct=*/false), pred2);
  EXPECT_TRUE(sp.set_equal(ps));
  EXPECT_EQ(sp.row_count(), ps.row_count());
}

TEST_P(TableProperty, DistinctIsIdempotent) {
  Table t = random_table(rng_, {"x", "y"}, 60, 2);  // many duplicates
  Table d1 = t.distinct();
  Table d2 = d1.distinct();
  EXPECT_EQ(d1.row_count(), d2.row_count());
  EXPECT_TRUE(d1.set_equal(t));
}

TEST_P(TableProperty, UnionDistinctIsCommutativeAndIdempotent) {
  Table a = random_table(rng_, {"x", "y"}, 20, 2);
  Table b = random_table(rng_, {"x", "y"}, 20, 2);
  Table ab = Table::union_distinct(a, b);
  Table ba = Table::union_distinct(b, a);
  EXPECT_TRUE(ab.set_equal(ba));
  EXPECT_TRUE(Table::union_distinct(a, a).set_equal(a));
}

TEST_P(TableProperty, DifferenceLaws) {
  Table a = random_table(rng_, {"x", "y"}, 25, 2);
  Table b = random_table(rng_, {"x", "y"}, 25, 2);
  // a \ b written with the remaining algebra: select the rows of a whose
  // one-row table b does not contain.
  auto minus = [](const Table& l, const Table& r) {
    return naive::select(l, [&](RowView row) {
      Table one(l.schema_ptr());
      one.append(row);
      return !r.contains_all(one);
    });
  };
  Table diff = minus(a, b);
  EXPECT_TRUE(a.contains_all(diff));
  // (a \ b) ∪ b covers a, and a \ b shares no row with b.
  EXPECT_TRUE(Table::union_distinct(diff, b).contains_all(a));
  EXPECT_EQ(minus(diff, b).row_count(), diff.row_count());
  EXPECT_EQ(minus(a, a).row_count(), 0u);
  // a \ empty = a.
  Table empty(a.schema_ptr());
  EXPECT_TRUE(minus(a, empty).set_equal(a));
}

TEST_P(TableProperty, ContainsAllIsReflexiveAndAntisymmetricOnSets) {
  Table a = random_table(rng_, {"x", "y"}, 30, 2);
  EXPECT_TRUE(a.contains_all(a));
  Table b = a.distinct();
  EXPECT_TRUE(a.contains_all(b));
  EXPECT_TRUE(b.contains_all(a));
  EXPECT_TRUE(a.set_equal(b));
}

TEST_P(TableProperty, SortedIsPermutationAndDeterministic) {
  Table a = random_table(rng_, {"x", "y", "z"}, 30, 4);
  const std::vector<std::string> all{"x", "y", "z"};
  Table s1 = a.sorted_by(all);
  EXPECT_EQ(s1.row_count(), a.row_count());
  EXPECT_TRUE(s1.set_equal(a));
  // Sorting a shuffled copy gives byte-identical output.
  Table shuffled(a.schema_ptr());
  std::vector<std::size_t> idx(a.row_count());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::shuffle(idx.begin(), idx.end(), rng_);
  for (std::size_t i : idx) shuffled.append(a.row(i));
  EXPECT_EQ(to_csv(shuffled.sorted_by(all)), to_csv(s1));
}

TEST_P(TableProperty, CsvRoundTripPreservesRows) {
  Table a = random_table(rng_, {"x", "y"}, 15, 3);
  Table back = from_csv(to_csv(a));
  EXPECT_EQ(back.row_count(), a.row_count());
  EXPECT_TRUE(back.set_equal(a.with_schema(back.schema_ptr())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace ccsql
