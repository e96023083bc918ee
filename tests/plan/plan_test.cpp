#include "plan/planner.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "plan/explain.hpp"
#include "plan/ir.hpp"
#include "plan/optimizer.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/database.hpp"
#include "relational/format.hpp"
#include "relational/query.hpp"
#include "support/naive_exec.hpp"

namespace ccsql {
namespace {

using plan::PlanNode;
using plan::PlanPtr;

Catalog make_catalog() {
  Catalog db;
  Table d(Schema::of({"dirst", "dirpv", "memmsg"}));
  d.append_texts({"I", "zero", "mread"});
  d.append_texts({"MESI", "one", "NULL"});
  d.append_texts({"MESI", "one", "wb"});
  d.append_texts({"SI", "set", "NULL"});
  d.append_texts({"I", "zero", "wb"});
  db.put("D", std::move(d));
  Table m(Schema::of({"inmsg", "outmsg"}));
  m.append_texts({"mread", "data"});
  m.append_texts({"wb", "compl"});
  m.append_texts({"mwrite", "mdone"});
  db.put("M", std::move(m));
  return db;
}

/// fold_expr's rendering of `text`.  Its change report must agree with
/// the rendering: a rewrite always shows in the text.
std::string folded(const char* text) {
  const Expr e = parse_expr(text);
  bool changed = false;
  const std::string out = plan::fold_expr(e, changed).to_string();
  EXPECT_EQ(changed, out != e.to_string()) << text;
  return out;
}

TEST(FoldExpr, TernaryWithConstantCondition) {
  EXPECT_EQ(folded("true ? a = x : b = y"), "a = x");
  EXPECT_EQ(folded("false ? a = x : b = y"), "b = y");
}

TEST(FoldExpr, TernaryWithConstantBranches) {
  // c ? true : false  ==  c
  EXPECT_EQ(folded("a = x ? true : false"), "a = x");
  // c ? false : true  ==  not c (folded into the comparison)
  EXPECT_EQ(folded("a = x ? false : true"), "a != x");
  EXPECT_EQ(folded("a = x ? true : true"), "true");
}

TEST(FoldExpr, NegationsFoldIntoComparisons) {
  EXPECT_EQ(folded("not a = x"), "a != x");
  EXPECT_EQ(folded("not not a = x"), "a = x");
  EXPECT_EQ(folded("not a in (x, y)"), "a not in (x, y)");
}

TEST(FoldExpr, ConjunctionConstants) {
  EXPECT_EQ(folded("a = x and false"), "false");
  EXPECT_EQ(folded("a = x and true"), "a = x");
  EXPECT_EQ(folded("a = x or true"), "true");
  EXPECT_EQ(folded("a = x or false"), "a = x");
}

TEST(FoldExpr, ReportsNoChangeWhenNothingFolds) {
  for (const char* text :
       {"a = x", "a != x and b in (y, z)", "not (a = x or b = y)",
        "a = x ? b = y : c = z", "isrequest(inmsg) and a != x"}) {
    const Expr e = parse_expr(text);
    bool changed = false;
    EXPECT_EQ(plan::fold_expr(e, changed).to_string(), e.to_string());
    EXPECT_FALSE(changed) << text;
  }
}

TEST(Planner, EqualityLiteralLowersToIndexLookup) {
  Catalog db = make_catalog();
  PlanPtr p = plan::plan_select(
      db, parse_select("select dirpv from D where dirst = \"MESI\""));
  ASSERT_EQ(p->kind, PlanNode::Kind::kProject);
  EXPECT_EQ(p->child().kind, PlanNode::Kind::kIndexLookup);
  EXPECT_EQ(p->child().columns, std::vector<std::string>{"dirst"});
}

// Select merging runs after index lowering and folds every Select chain
// into one Select over the conjunction, innermost first: a conjunction
// left over an IndexLookup or a Scan executes as one filter, never as a
// Select over a Select.
TEST(Plan, SelectChainsFoldIntoOneConjunction) {
  Catalog db;
  Table t(Schema::of({"k", "a", "b"}));
  t.append_texts({"x", "y", "z"});
  t.append_texts({"x", "w", "w"});
  t.append_texts({"x", "y", "w"});
  t.append_texts({"u", "w", "w"});
  t.append_texts({"u", "y", "z"});
  db.put("T", std::move(t));
  struct Case {
    const char* sql;
    PlanNode::Kind leaf;
    std::size_t rows;
  };
  const Case cases[] = {
      {"select * from T where k = \"x\" and a <> \"y\" and b <> \"z\"",
       PlanNode::Kind::kIndexLookup, 1},
      {"select * from T where a <> \"y\" and b <> \"z\"",
       PlanNode::Kind::kScan, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    const SelectStmt stmt = parse_select(c.sql);
    PlanPtr p = plan::plan_select(db, stmt);
    const PlanNode& sel = *p;  // `select *` needs no Project
    ASSERT_EQ(sel.kind, PlanNode::Kind::kSelect) << plan::render(*p);
    EXPECT_EQ(sel.predicate->op(), Expr::Op::kAnd);
    // Innermost first: the chain split ran the last conjunct innermost.
    EXPECT_EQ(sel.predicate->to_string(), "(b != \"z\" and a != \"y\")");
    EXPECT_EQ(sel.child().kind, c.leaf) << plan::render(*p);
    const Table planned = plan::run_select(db, stmt);
    const Table naive = naive::run(db, stmt);
    EXPECT_EQ(planned.row_count(), c.rows);
    EXPECT_EQ(planned.row_count(), naive.row_count());
    EXPECT_TRUE(planned.set_equal(naive));
  }
}

std::vector<std::string> column_names(const PlanNode& n) {
  std::vector<std::string> names;
  for (const Column& c : n.schema->columns()) names.push_back(c.name);
  return names;
}

// A join is one Select over a Cross: the cross-side equality stays in the
// Select, and the route probes the right scan's index on it.
TEST(Planner, CrossWithEqualityRoutesAsOneSelectOverTheCross) {
  Catalog db = make_catalog();
  const SelectStmt stmt = parse_select(
      "select a.memmsg, b.outmsg from D a, M b where a.memmsg = b.inmsg");
  PlanPtr p = plan::plan_select(db, stmt);
  ASSERT_EQ(p->kind, PlanNode::Kind::kProject);
  const PlanNode& join = p->child();
  ASSERT_EQ(join.kind, PlanNode::Kind::kSelect);
  EXPECT_EQ(join.predicate->to_string(), "a.memmsg = b.inmsg");
  // The Select outputs only the projected columns; its Cross keeps every
  // column its predicate reads.
  EXPECT_EQ(column_names(join),
            (std::vector<std::string>{"a.memmsg", "b.outmsg"}));
  const PlanNode& cross = join.child();
  ASSERT_EQ(cross.kind, PlanNode::Kind::kCross);
  EXPECT_EQ(column_names(cross).size(), 5u);
  EXPECT_EQ(cross.child(0).kind, PlanNode::Kind::kScan);
  EXPECT_EQ(cross.child(1).kind, PlanNode::Kind::kScan);
  plan::ExecContext ctx{&db, &db.functions()};
  const Table planned = plan::execute(*p, ctx);
  // mread meets mread, each wb meets wb: three candidate pairs, not 15.
  EXPECT_TRUE(cross.routed);
  EXPECT_EQ(cross.actual_rows, 3u);
  EXPECT_EQ(to_csv(planned), to_csv(naive::run(db, stmt)));
}

// Every routed probe counts as an index build the first time a table is
// probed on a column set and as a hit after, as a point lookup does: a
// guard tree keyed on two columns builds two indexes, and a join on one of
// them hits it.
TEST(Planner, RoutedProbesCountIndexBuildsAndHits) {
  obs::Tracer& tracer = obs::Tracer::global();
  const bool was_on = tracer.metrics_enabled();
  tracer.enable_metrics();
  const auto count = [&](const char* name) {
    return tracer.metrics().counter(name);
  };
  Catalog db = make_catalog();
  const std::uint64_t builds = count("plan.index_builds");
  const std::uint64_t hits = count("plan.index_hits");
  (void)plan::run_select(
      db, parse_select("select * from D a, M b where (a.dirst = I ? "
                       "b.inmsg = a.memmsg : b.outmsg in (data, mdone))"));
  EXPECT_EQ(count("plan.index_builds") - builds, 2u);
  EXPECT_EQ(count("plan.index_hits") - hits, 0u);
  const SelectStmt join = parse_select(
      "select a.memmsg, b.outmsg from D a, M b where a.memmsg = b.inmsg");
  (void)plan::run_select(db, join);
  (void)plan::run_select(db, join);
  EXPECT_EQ(count("plan.index_builds") - builds, 2u);
  EXPECT_EQ(count("plan.index_hits") - hits, 2u);
  tracer.enable_metrics(was_on);
}

TEST(Planner, SingleSidePredicatesPushBelowTheJoin) {
  Catalog db = make_catalog();
  PlanPtr p = plan::plan_select(
      db, parse_select("select a.memmsg from D a, M b "
                       "where a.memmsg = b.inmsg and not b.outmsg = \"compl\" "
                       "and a.dirst = \"I\""));
  const PlanNode& join = p->child();
  ASSERT_EQ(join.kind, PlanNode::Kind::kSelect);
  EXPECT_EQ(join.predicate->to_string(), "a.memmsg = b.inmsg");
  const PlanNode& cross = join.child();
  ASSERT_EQ(cross.kind, PlanNode::Kind::kCross);
  // a.dirst = "I" became an index lookup on the left scan; the negated
  // b-side filter sank below the join on the right.
  EXPECT_EQ(cross.child(0).kind, PlanNode::Kind::kIndexLookup);
  EXPECT_EQ(cross.child(1).kind, PlanNode::Kind::kSelect);
  EXPECT_EQ(cross.child(1).child().kind, PlanNode::Kind::kScan);
}

TEST(Planner, JoinChainNarrowsEveryJoinToTheColumnsReadAbove) {
  Catalog db = make_catalog();
  const SelectStmt stmt = parse_select(
      "select a.dirst, c.dirpv from D a, M b, D c where a.memmsg = b.inmsg "
      "and b.outmsg = c.memmsg and not c.dirst = a.dirst");
  PlanPtr p = plan::plan_select(db, stmt);
  ASSERT_EQ(p->kind, PlanNode::Kind::kProject);
  // The top join holds the equality and the residual in one Select, which
  // outputs only the projected columns.
  const PlanNode& top = p->child();
  ASSERT_EQ(top.kind, PlanNode::Kind::kSelect);
  EXPECT_EQ(column_names(top),
            (std::vector<std::string>{"a.dirst", "c.dirpv"}));
  const PlanNode& cross = top.child();
  ASSERT_EQ(cross.kind, PlanNode::Kind::kCross);
  // The inner join keeps what the top join reads of it: a projected
  // column and a column of the top join's predicate — none of b's input
  // columns.  Its predicate still reads a.memmsg and b.inmsg, from its
  // Cross, which keeps them.
  const PlanNode& inner = cross.child(0);
  ASSERT_EQ(inner.kind, PlanNode::Kind::kSelect);
  EXPECT_EQ(column_names(inner),
            (std::vector<std::string>{"a.dirst", "b.outmsg"}));
  ASSERT_EQ(inner.child().kind, PlanNode::Kind::kCross);
  EXPECT_EQ(column_names(inner.child()).size(), 5u);
  EXPECT_EQ(column_names(cross),
            (std::vector<std::string>{"a.dirst", "b.outmsg", "c.dirst",
                                      "c.dirpv", "c.memmsg"}));
  const Table planned = plan::run_select(db, stmt);
  const Table naive = naive::run(db, stmt);
  EXPECT_EQ(planned.row_count(), naive.row_count());
  EXPECT_TRUE(planned.set_equal(naive));
}

TEST(Planner, CrossOverAJoinNarrowsTheJoinBelowIt) {
  Catalog db = make_catalog();
  const SelectStmt stmt = parse_select(
      "select a.dirst, m.outmsg from D a, M b, M m where a.memmsg = b.inmsg");
  PlanPtr p = plan::plan_select(db, stmt);
  const PlanNode& cross = p->child();
  ASSERT_EQ(cross.kind, PlanNode::Kind::kCross);
  ASSERT_EQ(cross.child(0).kind, PlanNode::Kind::kSelect);
  ASSERT_EQ(cross.child(0).child().kind, PlanNode::Kind::kCross);
  EXPECT_EQ(column_names(cross.child(0)),
            std::vector<std::string>{"a.dirst"});
  EXPECT_EQ(column_names(cross),
            (std::vector<std::string>{"a.dirst", "m.inmsg", "m.outmsg"}));
  const Table planned = plan::run_select(db, stmt);
  const Table naive = naive::run(db, stmt);
  EXPECT_EQ(planned.row_count(), naive.row_count());
  EXPECT_TRUE(planned.set_equal(naive));
}

TEST(Planner, JoinAskedForNoColumnsKeepsItsNarrowedCrossColumns) {
  Catalog db = make_catalog();
  // The top Cross reads nothing of its left side, the outer join: that
  // join keeps its Cross's columns, which pruning already narrowed to
  // b.inmsg (all the outer join reads of the inner one) and c's columns.
  const SelectStmt stmt = parse_select(
      "select d.outmsg from D a, M b, D c, M d "
      "where a.memmsg = b.inmsg and b.inmsg = c.memmsg");
  PlanPtr p = plan::plan_select(db, stmt);
  const PlanNode& cross = p->child();
  ASSERT_EQ(cross.kind, PlanNode::Kind::kCross);
  const PlanNode& outer = cross.child(0);
  ASSERT_EQ(outer.kind, PlanNode::Kind::kSelect);
  ASSERT_EQ(outer.child().kind, PlanNode::Kind::kCross);
  EXPECT_EQ(column_names(outer.child().child(0)),
            std::vector<std::string>{"b.inmsg"});
  EXPECT_EQ(column_names(outer), column_names(outer.child()));
  const Table planned = plan::run_select(db, stmt);
  const Table naive = naive::run(db, stmt);
  EXPECT_EQ(planned.row_count(), 15u);
  EXPECT_EQ(planned.row_count(), naive.row_count());
  EXPECT_TRUE(planned.set_equal(naive));
}

TEST(Planner, PlannedMatchesNaiveOnRepresentativeQueries) {
  Catalog db = make_catalog();
  const char* queries[] = {
      "select dirst, dirpv from D where dirst = \"MESI\" and "
      "not dirpv = \"one\"",
      "select distinct dirst from D",
      "select * from D where dirpv in (zero, set)",
      "select a.memmsg, b.outmsg from D a, M b where a.memmsg = b.inmsg",
      "select a.dirst from D a, M b where a.memmsg = b.inmsg and "
      "b.outmsg = \"compl\" order by a.dirst",
      "select count(*) from D where dirst = I",
      "select dirst from D where dirst = I union select dirst from D "
      "where dirst = \"SI\"",
      "select dirst from D where true ? dirst = I : false",
  };
  for (const char* q : queries) {
    SelectStmt stmt = parse_select(q);
    Table planned = plan::run_select(db, stmt);
    Table naive = naive::run(db, stmt);
    EXPECT_EQ(planned.row_count(), naive.row_count()) << q;
    EXPECT_TRUE(planned.set_equal(naive)) << q;
  }
}

TEST(Planner, CheckEmptyAgreesWithNaive) {
  Catalog db = make_catalog();
  const char* invariants[] = {
      "[select dirst from D where dirst = \"MESI\" and dirpv = zero] = empty",
      "[select a.memmsg from D a, M b where a.memmsg = b.inmsg and "
      "not b.outmsg = \"compl\" and a.memmsg = \"wb\"] = empty",
      "[select dirst from D where dirst = I] = empty",
  };
  for (const char* inv : invariants) {
    EXPECT_EQ(db.check_empty(inv), naive::check_empty(db, inv)) << inv;
  }
}

TEST(CrossSelect, MatchesNaiveCrossPlusFilter) {
  Table left(Schema::of({"x", "y"}));
  left.append_texts({"a", "1"});
  left.append_texts({"b", "2"});
  left.append_texts({"c", "1"});
  Table right(Schema::of({"z"}));
  right.append_texts({"1"});
  right.append_texts({"2"});
  right.append_texts({"3"});
  const SchemaPtr full = Schema::of({"x", "y", "z"});
  Expr pred = parse_expr("y = z and not x = c");

  Table planned = plan::cross_select(left, right, pred, *full);
  Table naive = naive::cross_select(left, right, pred, *full);
  EXPECT_EQ(planned.row_count(), naive.row_count());
  EXPECT_TRUE(planned.set_equal(naive));
  EXPECT_EQ(planned.row_count(), 2u);  // (a, 1, 1) and (b, 2, 2)
}

// ---- Golden EXPLAIN output for two representative ASURA invariant queries.

TEST(Explain, GoldenSingleTablePointLookup) {
  auto spec = asura::make_asura();
  // The first SELECT of the suite's first invariant
  // (dir-state-pv-consistency): an equality on dirst plus a residual
  // filter.
  const std::string out = plan::explain_sql(
      spec->database().catalog(),
      "Select dirst, dirpv from D where dirst = \"MESI\" and "
      "not dirpv = \"one\"");
  EXPECT_EQ(out,
            "Project [dirst, dirpv] (est=10.9, actual=0)\n"
            "  Select (dirpv != \"one\") (est=10.9, actual=0)\n"
            "    IndexLookup D (dirst = \"MESI\") (est=33.1, actual=11)\n");
}

TEST(Explain, GoldenCrossTableJoin) {
  auto spec = asura::make_asura();
  // The SELECT of mem-wb-reaches-completion: directory-to-memory writeback
  // handshake, planned as a join instead of a filtered cross product: the
  // equality stays in the Select over the Cross, whose route probes the
  // right side's index on b.inmsg once per left row.  A join estimates
  // 10% of the product per cross-side equality.
  const std::string out = plan::explain_sql(
      spec->database().catalog(),
      "Select a.memmsg, b.inmsg, b.outmsg from D a, M b "
      "where a.memmsg = b.inmsg and a.memmsg = \"wb\" and "
      "not b.outmsg = \"compl\"");
  EXPECT_EQ(
      out,
      "Project [a.memmsg, b.inmsg, b.outmsg] (est=5.5, actual=0)\n"
      "  Select (a.memmsg = b.inmsg) (est=5.5, actual=0)\n"
      "    Cross [routed] (est=54.6, actual=0)\n"
      "      IndexLookup D as a (a.memmsg = \"wb\") (est=33.1, actual=1)\n"
      "      Select (b.outmsg != \"compl\") (est=1.7, actual=4)\n"
      "        Scan M as b (est=5, actual=5)\n");
}

TEST(Explain, GoldenThreeWayMultiKeyJoin) {
  auto spec = asura::make_asura();
  // A directory row's memory request, the memory's reply, and the
  // directory row consuming that reply.  Each conjunct lands where it
  // applies: the literal an index lookup, the one-table filter a Select on
  // its scan, and everything spanning both sides of a Cross — the
  // cross-side equalities, which the route merges into one multi-column
  // probe, and the residual spanning a and c — one Select over the Cross
  // that first sees both, innermost first.  A join's estimate is floored
  // at one row, so the 3-key inner join reads est=1 and the outer one
  // builds on it.
  const std::string out = plan::explain_sql(
      spec->database().catalog(),
      "select a.inmsg, b.outmsg, c.nxtdirst from D a, M b, D c "
      "where a.memmsg = b.inmsg and a.memmsgsrc = b.inmsgsrc and "
      "a.memmsgdest = b.inmsgdest and b.outmsg = c.inmsg and "
      "b.outmsgdest = c.inmsgdest and a.dirst = \"SI\" and "
      "not b.outmsg = mdone and not c.nxtdirst = a.nxtdirst");
  EXPECT_EQ(
      out,
      "Project [a.inmsg, b.outmsg, c.nxtdirst] (est=3.3, actual=48)\n"
      "  Select ((c.nxtdirst != a.nxtdirst and b.outmsgdest = c.inmsgdest "
      "and b.outmsg = c.inmsg)) (est=3.3, actual=48)\n"
      "    Cross [routed] (est=331, actual=48)\n"
      "      Select ((a.memmsg = b.inmsg and a.memmsgsrc = b.inmsgsrc and "
      "a.memmsgdest = b.inmsgdest)) (est=1, actual=8)\n"
      "        Cross [routed] (est=54.6, actual=8)\n"
      "          IndexLookup D as a (a.dirst = \"SI\") (est=33.1, actual=22)\n"
      "          Select (b.outmsg != mdone) (est=1.7, actual=3)\n"
      "            Scan M as b (est=5, actual=5)\n"
      "      Scan D as c (est=331, actual=331)\n");
}

TEST(Explain, UnexecutedPlanShowsDashForActual) {
  Catalog db = make_catalog();
  PlanPtr p =
      plan::plan_select(db, parse_select("select dirst from D"));
  EXPECT_NE(plan::render(*p).find("actual=-"), std::string::npos);
}

// ---- EXPLAIN ANALYZE: the per-operator runtime profile.

TEST(ExplainAnalyze, ReportsPerOperatorProfile) {
  auto spec = asura::make_asura();
  const char* sql =
      "Select a.memmsg, b.inmsg, b.outmsg from D a, M b "
      "where a.memmsg = b.inmsg and a.memmsg = \"wb\" and "
      "not b.outmsg = \"compl\"";
  plan::PlannerOptions opts;
  opts.analyze = true;
  const std::string out =
      plan::explain_sql(spec->database().catalog(), sql, opts);
  // Every executed operator carries a profile bracket; the routed Cross
  // reports the index its Select probed; fused children are marked instead
  // of profiled (their work is attributed to the fusing operator).
  EXPECT_NE(out.find("time="), std::string::npos) << out;
  EXPECT_NE(out.find("self="), std::string::npos) << out;
  EXPECT_NE(out.find("rows_out="), std::string::npos) << out;
  EXPECT_NE(out.find("build="), std::string::npos) << out;
  EXPECT_NE(out.find("[fused]"), std::string::npos) << out;
  // The plain EXPLAIN rendering is unchanged by the profiler's existence.
  EXPECT_EQ(plan::explain_sql(spec->database().catalog(), sql)
                .find("time="),
            std::string::npos);
}

TEST(ExplainAnalyze, DatabaseFacadeAppendsMemorySummary) {
  auto spec = asura::make_asura();
  const QueryResult r = spec->database().explain_analyze(
      "Select dirst, dirpv from D where dirst = \"MESI\"");
  EXPECT_NE(r.plan.find("time="), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find("memory:"), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find("peak"), std::string::npos) << r.plan;
}

TEST(ExplainAnalyze, GoldenFusedSelectOverCross) {
  // A cross-side inequality neither pushes down nor becomes a join key, so
  // the Select runs fused over the Cross: the Cross reports the product
  // size it never materialised, and bytes= is the narrow predicate read
  // (15 rows x 2 columns) plus one gather per side (12 rows x 3 and x 2
  // columns, each read and written), 4 bytes a cell.
  Catalog db = make_catalog();
  plan::PlannerOptions opts;
  opts.analyze = true;
  std::string out = plan::explain_sql(
      db, "select * from D a, M b where not a.memmsg = b.inmsg", opts);
  // Wall times vary run to run: mask each "time=... self=..." pair and
  // pin everything else.
  for (std::size_t at = out.find("time="); at != std::string::npos;
       at = out.find("time=", at + 4)) {
    const std::size_t end = out.find_first_of(" ]", out.find("self=", at));
    out.replace(at, end - at, "time");
  }
  EXPECT_EQ(out,
            "Select (a.memmsg != b.inmsg) (est=5.0, actual=12) [time "
            "rows_in=15 rows_out=12 batches=1 sel=80.0% bytes=600 B]\n"
            "  Cross (est=15, actual=15) [fused]\n"
            "    Scan D as a (est=5, actual=5) [time rows_out=5]\n"
            "    Scan M as b (est=3, actual=3) [time rows_out=3]\n");
}

TEST(ExplainAnalyze, GoldenRoutedSelectOverCross) {
  // A guarded assignment across the two sides routes: dirst = I rows meet
  // the M rows whose inmsg is their memmsg (one each), the others the rows
  // whose outmsg is data or mdone (two each).  The Cross reads [routed]
  // and reports those 8 candidate pairs, not the 15-row product; the
  // Select's rows_in is the 8 pairs its residual (the inequality) visited,
  // and bytes= is that residual's read (8 pairs x 2 columns) plus one
  // gather per side (8 rows x 3 and x 2 columns, each read and written).
  // build= is the two indexes on M the keyed leaves probed: 3 rows, 3
  // inmsg and 3 outmsg keys.
  Catalog db = make_catalog();
  plan::PlannerOptions opts;
  opts.analyze = true;
  const char* sql =
      "select * from D a, M b where "
      "(a.dirst = I ? b.inmsg = a.memmsg : b.outmsg in (data, mdone)) and "
      "not a.dirpv = b.outmsg";
  std::string out = plan::explain_sql(db, sql, opts);
  for (std::size_t at = out.find("time="); at != std::string::npos;
       at = out.find("time=", at + 4)) {
    const std::size_t end = out.find_first_of(" ]", out.find("self=", at));
    out.replace(at, end - at, "time");
  }
  EXPECT_EQ(out,
            "Select ((a.dirpv != b.outmsg and (a.dirst = I ? b.inmsg = "
            "a.memmsg : b.outmsg in (data, mdone)))) (est=5.0, actual=8) "
            "[time rows_in=8 rows_out=8 batches=1 sel=100.0% bytes=384 B]\n"
            "  Cross [routed] (est=15, actual=8) [fused build=3 rows/6 "
            "keys/592 B]\n"
            "    Scan D as a (est=5, actual=5) [time rows_out=5]\n"
            "    Scan M as b (est=3, actual=3) [time rows_out=3]\n");
  // Plain EXPLAIN marks the route too.
  EXPECT_NE(plan::explain_sql(db, sql).find("Cross [routed] (est=15, "
                                            "actual=8)"),
            std::string::npos);
  EXPECT_EQ(to_csv(db.query(sql)),
            to_csv(naive::run(db, parse_select(sql))));
}

TEST(ExplainAnalyze, CountsAreIdenticalAcrossJobs) {
  auto spec = asura::make_asura();
  const Catalog& db = spec->database().catalog();
  const SelectStmt stmt = parse_select(
      "Select a.memmsg, b.inmsg from D a, M b "
      "where a.memmsg = b.inmsg and not b.outmsg = \"compl\"");

  // Preorder (rows_in, rows_out, batches) per operator.  Morsel counts are
  // excluded by design: the serial path dispatches none.
  using Profile = std::vector<std::array<std::uint64_t, 3>>;
  auto collect = [](const PlanNode& n, Profile& out, auto&& self) -> void {
    out.push_back({n.stats.rows_in, n.stats.rows_out, n.stats.batches});
    for (const auto& c : n.children) self(*c, out, self);
  };
  auto run = [&](std::size_t jobs) {
    plan::PlannerOptions opts;
    opts.analyze = true;
    opts.jobs = jobs;
    PlanPtr p = plan::plan_select(db, stmt, opts);
    plan::ExecContext ctx;
    ctx.catalog = &db;
    ctx.functions = &db.functions();
    ctx.jobs = jobs;
    ctx.analyze = true;
    Table out = plan::execute(*p, ctx);
    Profile prof;
    collect(*p, prof, collect);
    return std::pair<std::size_t, Profile>(out.row_count(), prof);
  };

  const auto [rows1, prof1] = run(1);
  const auto [rows4, prof4] = run(4);
  EXPECT_EQ(rows1, rows4);
  EXPECT_EQ(prof1, prof4);
}

}  // namespace
}  // namespace ccsql
