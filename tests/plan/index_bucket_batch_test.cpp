// Index buckets wider than one batch.  The executor's fused
// Select-over-IndexLookup — whether it gathers its rows or plan::is_empty
// only asks whether there are any — filters an index bucket's row ids in
// 1024-row batches.  Here the bucket holds 1,500 rows and the first row
// passing the filter sits at bucket position 1,100 — in the second batch —
// so a probe that stopped after the first batch, or miscounted rows
// visited across the batch boundary, shows.
// Results must equal the naive executor, and EXPLAIN ANALYZE's
// actual/rows_in must read the passing row's bucket position plus one under
// a row budget of 1 (the whole bucket without one), as a row-by-row loop
// reports.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "plan/executor.hpp"
#include "plan/explain.hpp"
#include "plan/ir.hpp"
#include "plan/planner.hpp"
#include "relational/database.hpp"
#include "relational/format.hpp"
#include "relational/parser.hpp"
#include "serve/plan_cache.hpp"
#include "support/naive_exec.hpp"

namespace ccsql {
namespace {

using plan::PlanNode;

constexpr std::size_t kRows = 3000;
// Even rows carry k = "x": the bucket of "x" is rows 0, 2, 4, ..., so a
// row's bucket position is half its row id.
constexpr std::size_t kBucket = kRows / 2;
// The one bucket row passing `a != "miss"`, and the first passing both
// `b != "b0"` and `c != "c0"`.  Odd row 1 passes every filter too but lies
// outside the bucket.
constexpr std::size_t kHitPos = 1100;
// Bucket positions of two decoys in the first batch, each passing one of
// `b != "b0"` and `c != "c0"` but not the other: whichever order the
// merged conjunction evaluates those two conjuncts in, the first one has a
// survivor in the first batch that the second one must reject.
constexpr std::size_t kDecoyB = 10;
constexpr std::size_t kDecoyC = 20;

Database make_db() {
  Table t(Schema::of({"k", "a", "b", "c"}));
  for (std::size_t i = 0; i < kRows; ++i) {
    const bool hit = i == 1 || i == 2 * kHitPos;
    t.append({V(i % 2 == 0 ? "x" : "y"), V(hit ? "hit" : "miss"),
              V(hit || i == 2 * kDecoyB ? "b1" : "b0"),
              V(hit || i == 2 * kDecoyC ? "c1" : "c0")});
  }
  Database db;
  db.put("T", std::move(t));
  return db;
}

/// The Select whose child is an IndexLookup, or null.
PlanNode* fused_select(PlanNode& n) {  // NOLINT(misc-no-recursion)
  if (n.kind == PlanNode::Kind::kSelect &&
      n.child().kind == PlanNode::Kind::kIndexLookup) {
    return &n;
  }
  for (auto& c : n.children) {
    if (PlanNode* s = fused_select(*c)) return s;
  }
  return nullptr;
}

/// Executes `sql` with analyze on and row budget `limit`; checks rows
/// against the naive executor and the fused operators' counts against
/// `visited`.
void expect_fused(const Database& db, const std::string& sql,
                  std::size_t limit, std::size_t visited) {
  SCOPED_TRACE(sql + " limit " + std::to_string(limit));
  const SelectStmt stmt = parse_select(sql);
  plan::PlanPtr root = plan::plan_select(db, stmt);
  plan::ExecContext ctx;
  ctx.analyze = true;
  const Table got = plan::execute(*root, ctx, limit);

  const Table naive = naive::run(db, stmt);
  EXPECT_EQ(to_csv(got),
            to_csv(naive.row_count() > limit ? naive.head(limit) : naive));

  PlanNode* sel = fused_select(*root);
  ASSERT_NE(sel, nullptr) << plan::render(*root);
  EXPECT_EQ(sel->child().actual_rows, visited);
  EXPECT_EQ(sel->stats.rows_in, visited);
  const std::string text = plan::render_analyze(*root);
  EXPECT_NE(text.find("rows_in=" + std::to_string(visited) + " "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("IndexLookup T (k = \"x\") (est="), std::string::npos)
      << text;
  EXPECT_NE(text.find("actual=" + std::to_string(visited) + ")"),
            std::string::npos)
      << text;
}

/// plan::is_empty over `sql`, through a cached plan as serve::Server runs
/// it and through Database::check_empty's fresh plan.  The plan is one
/// Select over an index lookup (or a scan when `indexed` is false): the
/// verdict must match the naive executor and query.rows_scanned must count
/// the candidates up to and including the first passing one.
void expect_probe(const Database& db, const std::string& sql, bool indexed,
                  std::size_t visited) {
  SCOPED_TRACE(sql);
  const Snapshot snap = db.snapshot();
  const serve::CachedStatementPtr cs =
      serve::build_statement(snap, {parse_select(sql)});
  const PlanNode& root = *cs->units.at(0);
  ASSERT_EQ(root.kind, PlanNode::Kind::kSelect) << plan::render(root);
  EXPECT_EQ(root.child().kind, indexed ? PlanNode::Kind::kIndexLookup
                                       : PlanNode::Kind::kScan)
      << plan::render(root);
  EXPECT_NE(root.compiled, nullptr) << plan::render(root);

  const bool want = naive::check_empty(db, sql);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable_metrics();
  const auto expect_visits = [&](const char* path, auto probe) {
    SCOPED_TRACE(path);
    const std::uint64_t before =
        tracer.metrics().counter("query.rows_scanned");
    EXPECT_EQ(probe(), want);
    EXPECT_EQ(tracer.metrics().counter("query.rows_scanned") - before,
              visited);
  };
  expect_visits("cached",
                [&] { return plan::is_empty(root, {}); });
  expect_visits("fresh", [&] { return db.check_empty(sql); });
  tracer.enable_metrics(false);
}

TEST(IndexBucketBatch, FusedSelectFindsRowInSecondBatch) {
  const Database db = make_db();
  const std::string sql = "select * from T where k = \"x\" and a != \"miss\"";
  expect_fused(db, sql, 1, kHitPos + 1);
  expect_fused(db, sql, plan::kNoLimit, kBucket);
}

TEST(IndexBucketBatch, FusedSelectWithNoPassingRowVisitsWholeBucket) {
  const Database db = make_db();
  const std::string sql =
      "select * from T where k = \"x\" and not a in (\"miss\", \"hit\")";
  expect_fused(db, sql, 1, kBucket);
  expect_fused(db, sql, plan::kNoLimit, kBucket);
}

TEST(IndexBucketBatch, IsEmptyFindsRowInSecondBatch) {
  const Database db = make_db();
  expect_probe(db, "select * from T where k = \"x\" and a != \"miss\"",
               true, kHitPos + 1);
  expect_probe(db,
               "select * from T where k = \"x\" and "
               "not a in (\"miss\", \"hit\")",
               true, kBucket);
}

TEST(IndexBucketBatch, IsEmptyFilterChainRefinesAcrossBatches) {
  const Database db = make_db();
  // Two residual conjuncts over the bucket, merged into one filter: the
  // first batch holds a survivor of one conjunct (a decoy) that the other
  // rejects, so the probe must go on to the second batch.
  expect_probe(db,
               "select * from T where k = \"x\" and b != \"b0\" and "
               "c != \"c0\"",
               true, kHitPos + 1);
  // Three conjuncts over a scan: odd row 1 fails `k != "y"`, the decoys
  // fail one of the others, and row 2,200 — in the third batch — passes
  // all three.
  expect_probe(db,
               "select * from T where k != \"y\" and b != \"b0\" and "
               "c != \"c0\"",
               false, 2 * kHitPos + 1);
}

}  // namespace
}  // namespace ccsql
