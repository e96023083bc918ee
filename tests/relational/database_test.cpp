#include "relational/database.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/pool.hpp"
#include "obs/obs.hpp"
#include "plan/planner.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/format.hpp"
#include "relational/parser.hpp"
#include "support/naive_exec.hpp"

namespace ccsql {
namespace {

Database small_db() {
  Database db;
  Table d(Schema::of({"dirst", "dirpv"}));
  d.append({V("MESI"), V("one")});
  d.append({V("SI"), V("gone")});
  d.append({V("I"), V("zero")});
  db.put("D", std::move(d));
  return db;
}

TEST(Database, QueryMatchesNaiveOracle) {
  Database db = small_db();
  const std::string sql = "select dirst, dirpv from D where not dirst = I";
  QueryResult r = db.query(sql);
  EXPECT_EQ(to_csv(r.rows),
            to_csv(naive::run(db, parse_select(sql))));
  EXPECT_EQ(r.row_count(), 2u);
  EXPECT_FALSE(r.empty());
}

// The session's jobs reach the planner through every statement path: at
// set_jobs(4) the filter over the 11,916-row D x NC cross fans out on the
// pool from execute() (SELECT and CREATE TABLE AS) as from query(), and
// returns the rows of jobs 1.
TEST(Database, ExecuteHonoursSessionJobs) {
  // Four lanes whatever the host's core count.  ctest runs each test in a
  // process of its own, so this precedes the global pool's creation.
  const std::size_t saved_jobs = core::Pool::default_jobs();
  core::Pool::set_default_jobs(4);
  Database db = asura::make_asura()->database();
  ASSERT_GE(core::Pool::global().size(), 3u);
  const auto tasks = [] { return core::Pool::global().stats().tasks_run; };
  // Every row passes (no directory state names a message), so the Select
  // filters all 11,916 rows of the cross: past the parallel threshold.
  const std::string sql = "select * from D a, NC b where not a.dirst = b.inmsg";

  db.set_jobs(1);
  std::uint64_t before = tasks();
  const std::string serial = to_csv(db.execute(sql));
  EXPECT_EQ(tasks(), before) << "jobs 1 runs inline";
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 11916 + 1);

  db.set_jobs(4);
  before = tasks();
  EXPECT_EQ(to_csv(db.execute(sql)), serial);
  EXPECT_GT(tasks(), before) << "execute(SELECT) ran serially";
  before = tasks();
  (void)db.execute("create table X as " + sql);
  EXPECT_GT(tasks(), before) << "execute(CREATE TABLE AS) ran serially";
  EXPECT_EQ(to_csv(db.get("X")), serial);
  before = tasks();
  EXPECT_EQ(to_csv(db.query(sql).rows), serial);
  EXPECT_GT(tasks(), before) << "query() ran serially";
  core::Pool::set_default_jobs(saved_jobs);
}

// A cross with no filter above it fills its product on the pool too: the
// same 11,916 rows at jobs 1, 4 and 8, with pool tasks past jobs 1.
TEST(Database, BareCrossFansOutAtSessionJobs) {
  // Four lanes whatever the host's core count (see above).
  const std::size_t saved_jobs = core::Pool::default_jobs();
  core::Pool::set_default_jobs(4);
  Database db = asura::make_asura()->database();
  ASSERT_GE(core::Pool::global().size(), 3u);
  const auto tasks = [] { return core::Pool::global().stats().tasks_run; };
  const std::string sql = "select * from D a, NC b";

  db.set_jobs(1);
  std::uint64_t before = tasks();
  const std::string serial = to_csv(db.query(sql).rows);
  EXPECT_EQ(tasks(), before) << "jobs 1 runs inline";
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 11916 + 1);
  for (const std::size_t jobs : {std::size_t{4}, std::size_t{8}}) {
    db.set_jobs(jobs);
    before = tasks();
    EXPECT_EQ(to_csv(db.query(sql).rows), serial) << "jobs " << jobs;
    EXPECT_GT(tasks(), before) << "the cross ran serially at jobs " << jobs;
  }
  core::Pool::set_default_jobs(saved_jobs);
}

// One counter set: a SELECT counts once in query.selects, on the live
// database as on a snapshot's frozen one.
TEST(Database, QueryAndSnapshotQueryEachCountOneSelect) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable_metrics();
  const auto selects = [&] {
    return tracer.metrics().counter("query.selects");
  };
  Database db = small_db();
  const Snapshot snap = db.snapshot();
  std::uint64_t before = selects();
  (void)db.query("select dirst from D");
  EXPECT_EQ(selects(), before + 1);
  before = selects();
  (void)snap.catalog().query("select dirst from D");
  EXPECT_EQ(selects(), before + 1);
  tracer.enable_metrics(false);
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
    EXPECT_EQ(db.check_empty(sql), naive::check_empty(db, sql))
        << sql;
  }
}

TEST(Database, ExplainRendersThePlan) {
  Database db = small_db();
  const std::string plan = db.explain("select dirst from D where dirst = MESI");
  // Executed plan with estimated and actual cardinalities (the operator
  // choice — Scan vs IndexLookup — is the planner's business).
  EXPECT_NE(plan.find("Project"), std::string::npos);
  EXPECT_NE(plan.find("est="), std::string::npos);
  EXPECT_NE(plan.find("actual=1"), std::string::npos);
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
