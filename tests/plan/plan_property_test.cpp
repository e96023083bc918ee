// Property tests: the planned executor must agree with the naive reference
// executor (naive::run, tests/support) on randomized tables and predicates, for
// every fixed seed.  Any divergence is a planner bug by definition — the
// naive path is the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "plan/planner.hpp"
#include "relational/database.hpp"
#include "support/naive_exec.hpp"

namespace ccsql {
namespace {

using Rng = std::mt19937;

std::size_t pick(Rng& rng, std::size_t n) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

bool chance(Rng& rng, double p) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
}

const std::vector<std::string> kValues = {"v0", "v1", "v2", "v3", "v4"};

/// A table with `cols` columns and up to 25 rows of values drawn from the
/// small shared pool, so random equalities hit often enough to matter.
Table random_table(Rng& rng, const std::vector<std::string>& cols) {
  Table t(Schema::of(cols));
  const std::size_t rows = pick(rng, 26);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    row.reserve(cols.size());
    for (std::size_t c = 0; c < cols.size(); ++c) {
      row.push_back(kValues[pick(rng, kValues.size())]);
    }
    t.append_texts(row);
  }
  return t;
}

std::string random_value(Rng& rng) {
  // Bare and quoted spellings intern to the same symbol; exercise both.
  const std::string& v = kValues[pick(rng, kValues.size())];
  return chance(rng, 0.3) ? "\"" + v + "\"" : v;
}

/// One comparison / membership leaf over `cols`.
std::string random_leaf(Rng& rng, const std::vector<std::string>& cols) {
  const std::string& col = cols[pick(rng, cols.size())];
  std::string s;
  switch (pick(rng, 5)) {
    case 0:
      s = col + " = " + random_value(rng);
      break;
    case 1:
      s = col + " != " + random_value(rng);
      break;
    case 2:  // column = column (the hash-join shape when it spans tables)
      s = col + " = " + cols[pick(rng, cols.size())];
      break;
    case 3:
      s = col + " in (" + random_value(rng) + ", " + random_value(rng) + ")";
      break;
    default:
      s = "not " + col + " = " + random_value(rng);
      break;
  }
  return s;
}

std::string join_leaves(Rng& rng, const std::vector<std::string>& cols,
                        const char* op) {
  const std::size_t n = 2 + pick(rng, 2);
  std::string s;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) s += std::string(" ") + op + " ";
    s += random_leaf(rng, cols);
  }
  return s;
}

/// A random WHERE clause: a leaf, a conjunction, a disjunction, or a ternary
/// (the shape of the paper's column constraints).  The grammar has no
/// parentheses, so nesting stays within what the parser accepts.
std::string random_predicate(Rng& rng, const std::vector<std::string>& cols) {
  switch (pick(rng, 5)) {
    case 0:
      return random_leaf(rng, cols);
    case 1:
      return join_leaves(rng, cols, "and");
    case 2:
      return join_leaves(rng, cols, "or");
    case 3:
      return random_leaf(rng, cols) + " ? " + join_leaves(rng, cols, "and") +
             " : " + join_leaves(rng, cols, "or");
    default:
      // Constant-foldable condition.
      return std::string(chance(rng, 0.5) ? "true" : "false") + " ? " +
             random_leaf(rng, cols) + " : " + random_leaf(rng, cols);
  }
}

/// Projection list: subset of `cols`, star, or COUNT(*).
std::string random_projection(Rng& rng, const std::vector<std::string>& cols,
                              std::vector<std::string>* chosen) {
  chosen->clear();
  if (chance(rng, 0.15)) return "count(*)";
  if (chance(rng, 0.2)) {
    *chosen = cols;
    return "*";
  }
  // Distinct columns: duplicate names in a projection are a schema error.
  std::vector<std::string> pool = cols;
  std::shuffle(pool.begin(), pool.end(), rng);
  std::string s;
  const std::size_t n = 1 + pick(rng, cols.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) s += ", ";
    s += pool[i];
    chosen->push_back(pool[i]);
  }
  return s;
}

std::string random_select(Rng& rng, const std::string& from,
                          const std::vector<std::string>& cols) {
  std::vector<std::string> chosen;
  std::string proj = random_projection(rng, cols, &chosen);
  std::string q = "select ";
  if (proj != "count(*)" && chance(rng, 0.3)) q += "distinct ";
  q += proj + " from " + from;
  if (chance(rng, 0.9)) q += " where " + random_predicate(rng, cols);
  if (!chosen.empty() && proj != "count(*)" && chance(rng, 0.3)) {
    q += " order by " + chosen[pick(rng, chosen.size())];
  }
  return q;
}

void expect_planned_matches_naive(const Database& db, const std::string& sql) {
  SelectStmt stmt = parse_select(sql);
  Table planned = plan::run_select(db, stmt);
  Table naive = naive::run(db, stmt);
  EXPECT_EQ(planned.row_count(), naive.row_count()) << sql;
  EXPECT_TRUE(planned.set_equal(naive)) << sql;
  EXPECT_EQ(db.check_empty(stmt), naive.row_count() == 0) << sql;
}

class PlanPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlanPropertyTest, SingleTableQueries) {
  Rng rng(GetParam());
  const std::vector<std::string> cols = {"a0", "a1", "a2"};
  for (int iter = 0; iter < 60; ++iter) {
    Database db;
    db.put("A", random_table(rng, cols));
    expect_planned_matches_naive(db, random_select(rng, "A", cols));
  }
}

TEST_P(PlanPropertyTest, AliasedTwoTableQueries) {
  Rng rng(GetParam() + 1000);
  const std::vector<std::string> a_cols = {"a0", "a1"};
  const std::vector<std::string> b_cols = {"b0", "b1"};
  const std::vector<std::string> visible = {"x.a0", "x.a1", "y.b0", "y.b1"};
  for (int iter = 0; iter < 60; ++iter) {
    Database db;
    db.put("A", random_table(rng, a_cols));
    db.put("B", random_table(rng, b_cols));
    expect_planned_matches_naive(db,
                                 random_select(rng, "A x, B y", visible));
  }
}

/// A conjunction of 3–7 leaves over three aliased tables: literal
/// equalities (index keys), cross-table equalities (join keys at whichever
/// Cross first sees both tables), one-table filters and residuals.
std::string random_three_table_where(Rng& rng,
                                     const std::vector<std::string>& cols) {
  const std::size_t n = 3 + pick(rng, 5);
  std::string s;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) s += " and ";
    const std::string& col = cols[pick(rng, cols.size())];
    const std::string& other = cols[pick(rng, cols.size())];
    switch (pick(rng, 6)) {
      case 0:
        s += col + " = " + random_value(rng);
        break;
      case 1:
      case 2:
        s += col + " = " + other;
        break;
      case 3:
        s += "not " + col + " = " + other;
        break;
      case 4:
        s += random_leaf(rng, cols) + " or " + random_leaf(rng, cols);
        break;
      default:
        s += random_leaf(rng, cols);
        break;
    }
  }
  return s;
}

TEST_P(PlanPropertyTest, AliasedThreeTableQueries) {
  Rng rng(GetParam() + 4000);
  const std::vector<std::string> a_cols = {"a0", "a1"};
  const std::vector<std::string> b_cols = {"b0", "b1"};
  const std::vector<std::string> c_cols = {"c0", "c1"};
  const std::vector<std::string> visible = {"x.a0", "x.a1", "y.b0",
                                            "y.b1", "z.c0", "z.c1"};
  for (int iter = 0; iter < 60; ++iter) {
    Database db;
    db.put("A", random_table(rng, a_cols));
    db.put("B", random_table(rng, b_cols));
    db.put("C", random_table(rng, c_cols));
    std::vector<std::string> chosen;
    const std::string proj = random_projection(rng, visible, &chosen);
    expect_planned_matches_naive(
        db, "select " + proj + " from A x, B y, C z where " +
                random_three_table_where(rng, visible));
  }
}

TEST_P(PlanPropertyTest, UnionQueries) {
  Rng rng(GetParam() + 2000);
  const std::vector<std::string> cols = {"a0", "a1", "a2"};
  for (int iter = 0; iter < 40; ++iter) {
    Database db;
    db.put("A", random_table(rng, cols));
    // Same arity on both branches; positions align the union.
    std::string q = "select a0, a1 from A where " +
                    random_predicate(rng, cols) +
                    " union select a1, a2 from A where " +
                    random_predicate(rng, cols);
    expect_planned_matches_naive(db, q);
  }
}

TEST_P(PlanPropertyTest, CrossSelectMatchesNaiveCrossPlusFilter) {
  Rng rng(GetParam() + 3000);
  const std::vector<std::string> all = {"p", "q", "r"};
  for (int iter = 0; iter < 60; ++iter) {
    Table left = random_table(rng, {"p", "q"});
    Table right = random_table(rng, {"r"});
    const SchemaPtr full = Schema::of(all);
    Expr pred = parse_expr(random_predicate(rng, all));

    Table planned = plan::cross_select(left, right, pred, *full);
    Table naive = naive::cross_select(left, right, pred, *full);
    EXPECT_EQ(planned.row_count(), naive.row_count()) << pred.to_string();
    EXPECT_TRUE(planned.set_equal(naive)) << pred.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanPropertyTest,
                         ::testing::Values(7u, 42u, 20260806u));

}  // namespace
}  // namespace ccsql
