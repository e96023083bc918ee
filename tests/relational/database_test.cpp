#include "relational/database.hpp"

#include <gtest/gtest.h>

#include "core/pool.hpp"
#include "plan/planner.hpp"
#include "relational/format.hpp"
#include "relational/parser.hpp"
#include "support/naive_exec.hpp"

namespace ccsql {
namespace {

Database small_db() {
  Catalog cat;
  Table d(Schema::of({"dirst", "dirpv"}));
  d.append({V("MESI"), V("one")});
  d.append({V("SI"), V("gone")});
  d.append({V("I"), V("zero")});
  cat.put("D", std::move(d));
  return Database(std::move(cat));
}

TEST(Database, QueryMatchesNaiveOracle) {
  Database db = small_db();
  const std::string sql = "select dirst, dirpv from D where not dirst = I";
  QueryResult r = db.query(sql);
  EXPECT_EQ(to_csv(r.rows),
            to_csv(naive::run(db.catalog(), parse_select(sql))));
  EXPECT_EQ(r.row_count(), 2u);
  EXPECT_FALSE(r.empty());
}

TEST(Database, QueryReportsSessionSettings) {
  Database db = small_db();
  db.set_jobs(3);
  QueryResult r = db.query("select dirst from D");
  EXPECT_EQ(r.jobs, 3u);
}

TEST(Database, JobsZeroFollowsProcessDefault) {
  Database db = small_db();
  EXPECT_EQ(db.jobs(), core::Pool::default_jobs());
  db.set_jobs(5);
  EXPECT_EQ(db.jobs(), 5u);
  db.set_jobs(0);
  EXPECT_EQ(db.jobs(), core::Pool::default_jobs());
}

TEST(Database, CheckEmptyMatchesQueryEmptiness) {
  Database db = small_db();
  EXPECT_TRUE(db.check_empty("[select dirst from D where dirst = X] = empty"));
  EXPECT_FALSE(
      db.check_empty("[select dirst from D where dirst = SI] = empty"));
  // Conjunctions hold iff every branch is empty.
  EXPECT_FALSE(db.check_empty(
      "[select dirst from D where dirst = X] = empty and "
      "[select dirst from D where dirst = I] = empty"));
}

TEST(Database, CheckEmptyAgreesAcrossPlannerModes) {
  Database db = small_db();
  for (const char* sql :
       {"[select dirst from D where dirst = X] = empty",
        "[select dirst from D where dirst = SI] = empty",
        "[select dirpv from D where dirst = MESI and dirpv = one] = empty"}) {
    EXPECT_EQ(db.check_empty(sql), naive::check_empty(db.catalog(), sql))
        << sql;
  }
}

TEST(Database, ExplainRendersThePlan) {
  Database db = small_db();
  QueryResult r = db.explain("select dirst from D where dirst = MESI");
  // Executed plan with estimated and actual cardinalities (the operator
  // choice — Scan vs IndexLookup — is the planner's business).
  EXPECT_NE(r.plan.find("Project"), std::string::npos);
  EXPECT_NE(r.plan.find("est="), std::string::npos);
  EXPECT_NE(r.plan.find("actual=1"), std::string::npos);
}

TEST(Database, ExecuteMutatesTheOwnedCatalog) {
  Database db = small_db();
  (void)db.execute("create table T as select dirst from D where dirst = SI");
  ASSERT_TRUE(db.has("T"));
  EXPECT_EQ(db.get("T").row_count(), 1u);
  (void)db.execute("drop table T");
  EXPECT_FALSE(db.has("T"));
}

TEST(Database, CopiesAreIndependentSessions) {
  Database a = small_db();
  Database b = a;
  b.set_jobs(7);
  b.put("Extra", Table(Schema::of({"x"})));
  EXPECT_FALSE(a.has("Extra"));
  EXPECT_NE(a.jobs(), 7u);
  EXPECT_TRUE(b.has("Extra"));
}

TEST(Database, CrossSelectMatchesNaiveCrossAndFilter) {
  Table l(Schema::of({"a"}));
  l.append({V("x")});
  l.append({V("y")});
  Table r(Schema::of({"b"}));
  r.append({V("x")});
  r.append({V("z")});
  SchemaPtr full = Schema::of({"a", "b"});

  Expr pred = parse_expr("a = b");
  Table joined = plan::cross_select(l, r, pred, *full);
  ASSERT_EQ(joined.row_count(), 1u);
  EXPECT_EQ(joined.at(0, "a"), V("x"));
  EXPECT_EQ(joined.at(0, "b"), V("x"));

  // The naive cross-then-filter is the oracle.
  EXPECT_EQ(to_csv(naive::cross_select(l, r, pred, *full)), to_csv(joined));
}

}  // namespace
}  // namespace ccsql
