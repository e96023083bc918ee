#include "plan/planner.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "plan/explain.hpp"
#include "plan/ir.hpp"
#include "plan/optimizer.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/database.hpp"
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

TEST(Planner, CrossWithEqualityLowersToHashJoin) {
  Catalog db = make_catalog();
  PlanPtr p = plan::plan_select(
      db, parse_select("select a.memmsg, b.outmsg from D a, M b "
                       "where a.memmsg = b.inmsg"));
  ASSERT_EQ(p->kind, PlanNode::Kind::kProject);
  const PlanNode& join = p->child();
  ASSERT_EQ(join.kind, PlanNode::Kind::kHashJoin);
  EXPECT_EQ(join.left_keys, std::vector<std::string>{"a.memmsg"});
  EXPECT_EQ(join.right_keys, std::vector<std::string>{"b.inmsg"});
  EXPECT_EQ(join.child(0).kind, PlanNode::Kind::kScan);
  EXPECT_EQ(join.child(1).kind, PlanNode::Kind::kScan);
}

TEST(Planner, SingleSidePredicatesPushBelowTheJoin) {
  Catalog db = make_catalog();
  PlanPtr p = plan::plan_select(
      db, parse_select("select a.memmsg from D a, M b "
                       "where a.memmsg = b.inmsg and not b.outmsg = \"compl\" "
                       "and a.dirst = \"I\""));
  const PlanNode& join = p->child();
  ASSERT_EQ(join.kind, PlanNode::Kind::kHashJoin);
  // a.dirst = "I" became an index lookup on the left scan; the negated
  // b-side filter sank below the join on the right.
  EXPECT_EQ(join.child(0).kind, PlanNode::Kind::kIndexLookup);
  EXPECT_EQ(join.child(1).kind, PlanNode::Kind::kSelect);
  EXPECT_EQ(join.child(1).child().kind, PlanNode::Kind::kScan);
}

std::vector<std::string> column_names(const PlanNode& n) {
  std::vector<std::string> names;
  for (const Column& c : n.schema->columns()) names.push_back(c.name);
  return names;
}

TEST(Planner, JoinChainNarrowsEveryJoinToTheColumnsReadAbove) {
  Catalog db = make_catalog();
  const SelectStmt stmt = parse_select(
      "select a.dirst, c.dirpv from D a, M b, D c where a.memmsg = b.inmsg "
      "and b.outmsg = c.memmsg and not c.dirst = a.dirst");
  PlanPtr p = plan::plan_select(db, stmt);
  ASSERT_EQ(p->kind, PlanNode::Kind::kProject);
  const PlanNode& sel = p->child();
  ASSERT_EQ(sel.kind, PlanNode::Kind::kSelect);
  const PlanNode& top = sel.child();
  ASSERT_EQ(top.kind, PlanNode::Kind::kHashJoin);
  // The residual's columns ride with the projected ones; the Select takes
  // the join's narrowed schema.
  EXPECT_EQ(column_names(top),
            (std::vector<std::string>{"a.dirst", "c.dirst", "c.dirpv"}));
  EXPECT_EQ(column_names(sel), column_names(top));
  // The inner join keeps what the top join reads of it: a projected
  // column and the top join's left key — none of b's input columns.
  const PlanNode& inner = top.child(0);
  ASSERT_EQ(inner.kind, PlanNode::Kind::kHashJoin);
  EXPECT_EQ(column_names(inner),
            (std::vector<std::string>{"a.dirst", "b.outmsg"}));
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
  ASSERT_EQ(cross.child(0).kind, PlanNode::Kind::kHashJoin);
  EXPECT_EQ(column_names(cross.child(0)),
            std::vector<std::string>{"a.dirst"});
  EXPECT_EQ(column_names(cross),
            (std::vector<std::string>{"a.dirst", "m.inmsg", "m.outmsg"}));
  const Table planned = plan::run_select(db, stmt);
  const Table naive = naive::run(db, stmt);
  EXPECT_EQ(planned.row_count(), naive.row_count());
  EXPECT_TRUE(planned.set_equal(naive));
}

TEST(Planner, ExistsModeCapsThePlanWithLimitOne) {
  Catalog db = make_catalog();
  plan::PlannerOptions opts;
  opts.exists_only = true;
  PlanPtr p = plan::plan_select(
      db, parse_select("select dirst from D where dirst = I order by dirst"),
      opts);
  ASSERT_EQ(p->kind, PlanNode::Kind::kLimit);
  EXPECT_EQ(p->limit, 1u);
  // The ORDER BY is irrelevant to emptiness and was dropped.
  for (const PlanNode* n = p.get(); n != nullptr;
       n = n->children.empty() ? nullptr : &n->child()) {
    EXPECT_NE(n->kind, PlanNode::Kind::kSort);
  }
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

TEST(Explain, GoldenCrossTableHashJoin) {
  auto spec = asura::make_asura();
  // The SELECT of mem-wb-reaches-completion: directory-to-memory writeback
  // handshake, planned as a hash join instead of a cross product.
  const std::string out = plan::explain_sql(
      spec->database().catalog(),
      "Select a.memmsg, b.inmsg, b.outmsg from D a, M b "
      "where a.memmsg = b.inmsg and a.memmsg = \"wb\" and "
      "not b.outmsg = \"compl\"");
  EXPECT_EQ(
      out,
      "Project [a.memmsg, b.inmsg, b.outmsg] (est=5.5, actual=0)\n"
      "  HashJoin (a.memmsg = b.inmsg) (est=5.5, actual=0)\n"
      "    IndexLookup D as a (a.memmsg = \"wb\") (est=33.1, actual=1)\n"
      "    Select (b.outmsg != \"compl\") (est=1.7, actual=4)\n"
      "      Scan M as b (est=5, actual=5)\n");
  EXPECT_NE(out.find("HashJoin"), std::string::npos);
  EXPECT_EQ(out.find("Cross"), std::string::npos);
}

TEST(Explain, GoldenThreeWayMultiKeyJoin) {
  auto spec = asura::make_asura();
  // A directory row's memory request, the memory's reply, and the
  // directory row consuming that reply.  Each conjunct lands where it
  // applies: cross-side equalities become join keys (stack order at the
  // top join, reversed one level down), the literal an index lookup, the
  // one-table filter a Select on its scan, and the residual spanning a and
  // c one Select above the join that first sees both.  A join's estimate
  // is floored at one row, so the 3-key inner join reads est=1 and the
  // outer one builds on it.
  const std::string out = plan::explain_sql(
      spec->database().catalog(),
      "select a.inmsg, b.outmsg, c.nxtdirst from D a, M b, D c "
      "where a.memmsg = b.inmsg and a.memmsgsrc = b.inmsgsrc and "
      "a.memmsgdest = b.inmsgdest and b.outmsg = c.inmsg and "
      "b.outmsgdest = c.inmsgdest and a.dirst = \"SI\" and "
      "not b.outmsg = mdone and not c.nxtdirst = a.nxtdirst");
  EXPECT_EQ(
      out,
      "Project [a.inmsg, b.outmsg, c.nxtdirst] (est=1.1, actual=48)\n"
      "  Select (c.nxtdirst != a.nxtdirst) (est=1.1, actual=48)\n"
      "    HashJoin (b.outmsg = c.inmsg and b.outmsgdest = c.inmsgdest) "
      "(est=3.3, actual=48)\n"
      "      HashJoin (a.memmsgdest = b.inmsgdest and a.memmsgsrc = "
      "b.inmsgsrc and a.memmsg = b.inmsg) (est=1, actual=8)\n"
      "        IndexLookup D as a (a.dirst = \"SI\") (est=33.1, actual=22)\n"
      "        Select (b.outmsg != mdone) (est=1.7, actual=3)\n"
      "          Scan M as b (est=5, actual=5)\n"
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
  // Every executed operator carries a profile bracket; the hash join also
  // reports its build side; fused scan children are marked instead of
  // profiled (their work is attributed to the fusing operator).
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
