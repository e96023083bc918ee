// Planner behaviour with tracing compiled out (CCSQL_TRACING_DISABLED).
//
// The obs macros are header-level, but the planner's spans and counters live
// in src/plan/*.cpp, so this target recompiles those sources with the define
// (see CMakeLists.txt) instead of relying on a test-file-only define.  The
// planner must produce identical results either way — the instrumentation is
// observation, not behaviour.

#include <gtest/gtest.h>

#include <string>

#include "plan/explain.hpp"
#include "plan/planner.hpp"
#include "relational/query.hpp"
#include "support/naive_exec.hpp"

#ifndef CCSQL_TRACING_DISABLED
#error "this target must compile with CCSQL_TRACING_DISABLED"
#endif

namespace ccsql {
namespace {

Catalog make_catalog() {
  Catalog db;
  Table d(Schema::of({"dirst", "memmsg"}));
  d.append_texts({"I", "mread"});
  d.append_texts({"MESI", "wb"});
  d.append_texts({"SI", "wb"});
  db.put("D", std::move(d));
  Table m(Schema::of({"inmsg", "outmsg"}));
  m.append_texts({"mread", "data"});
  m.append_texts({"wb", "compl"});
  db.put("M", std::move(m));
  return db;
}

TEST(PlanDisabledTracing, PlannedStillMatchesNaive) {
  Catalog db = make_catalog();
  const char* queries[] = {
      "select dirst from D where dirst = \"MESI\"",
      "select a.dirst, b.outmsg from D a, M b where a.memmsg = b.inmsg",
      "select distinct memmsg from D order by memmsg",
  };
  for (const char* q : queries) {
    SelectStmt stmt = parse_select(q);
    Table planned = plan::run_select(db, stmt);
    Table naive = naive::run(db, stmt);
    EXPECT_EQ(planned.row_count(), naive.row_count()) << q;
    EXPECT_TRUE(planned.set_equal(naive)) << q;
  }
}

TEST(PlanDisabledTracing, ExplainAndExistsStillWork) {
  Catalog db = make_catalog();
  const std::string out = plan::explain_sql(
      db, "select a.dirst from D a, M b where a.memmsg = b.inmsg");
  EXPECT_NE(out.find("HashJoin"), std::string::npos);
  EXPECT_EQ(out.find("Cross"), std::string::npos);

  EXPECT_FALSE(
      plan::is_empty(db, parse_select("select dirst from D where "
                                      "dirst = \"MESI\"")));
  EXPECT_TRUE(
      plan::is_empty(db, parse_select("select dirst from D where "
                                      "dirst = \"nonesuch\"")));
}

}  // namespace
}  // namespace ccsql
