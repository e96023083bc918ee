// The prepared-statement layer underneath serve::Server: SQL normalization
// and cache keys, $N parameter plumbing, the LRU/invalidating PlanCache,
// and build_statement/run_unit/plan::is_empty against the ASURA suite.
#include "serve/plan_cache.hpp"

#include <gtest/gtest.h>

#include "protocol/asura/asura.hpp"
#include "relational/error.hpp"
#include "relational/format.hpp"
#include "relational/parser.hpp"

namespace ccsql::serve {
namespace {

Database small_db() {
  Database cat;
  Table d(Schema::of({"dirst", "dirpv"}));
  d.append({V("MESI"), V("one")});
  d.append({V("SI"), V("gone")});
  d.append({V("I"), V("zero")});
  cat.put("D", std::move(d));
  return cat;
}

TEST(NormalizeSql, CollapsesWhitespaceOutsideQuotes) {
  EXPECT_EQ(normalize_sql("  select   a\tfrom\n T  "), "select a from T");
  EXPECT_EQ(normalize_sql("select a from T where a = \"x  y\""),
            "select a from T where a = \"x  y\"");
  // Case is preserved: identifiers are case-sensitive.
  EXPECT_EQ(normalize_sql("SELECT a FROM T"), "SELECT a FROM T");
}

TEST(NormalizeSql, CacheKeyIsModePlusNormalizedText) {
  const std::string key = cache_key('E', "select  a from T");
  ASSERT_GE(key.size(), 2u);
  EXPECT_EQ(key[0], 'E');
  EXPECT_EQ(key[1], '\x1f');
  EXPECT_EQ(key.substr(2), "select a from T");
  // Equivalent statements collide; different modes never do.
  EXPECT_EQ(cache_key('Q', "select a  from T"), cache_key('Q', "select a from T"));
  EXPECT_NE(cache_key('Q', "select a from T"), cache_key('E', "select a from T"));
}

TEST(Params, ParseBindAndCount) {
  const SelectStmt stmt =
      parse_select("select dirst from D where dirst = $1 and dirpv != $2");
  EXPECT_EQ(param_count(stmt), 2u);
  const SelectStmt bound = bind_params(stmt, {"MESI", "zero"});
  EXPECT_EQ(param_count(bound), 0u);

  Database db = small_db();
  EXPECT_EQ(to_csv(db.query(bound).rows),
            to_csv(db.query("select dirst from D where dirst = \"MESI\" and "
                            "dirpv != \"zero\"")
                       .rows));
}

TEST(Params, UnboundParameterRefusesToCompile) {
  Database db = small_db();
  EXPECT_THROW((void)db.query("select dirst from D where dirst = $1"),
               BindError);
}

TEST(Params, DollarWithoutDigitsIsAParseError) {
  EXPECT_THROW((void)parse_select("select a from T where a = $"), ParseError);
}

TEST(PlanCacheLru, EvictsLeastRecentlyUsedBeyondCapacity) {
  Database db = small_db();
  Snapshot snap = db.snapshot();
  auto build = [&](const char* sql) {
    return build_statement(snap, {parse_select(sql)});
  };
  PlanCache cache(/*capacity=*/2);
  cache.insert("a", build("select dirst from D"));
  cache.insert("b", build("select dirpv from D"));
  // Touch "a" so "b" is the LRU victim when "c" arrives.
  EXPECT_NE(cache.lookup("a", snap.generation()), nullptr);
  cache.insert("c", build("select dirst, dirpv from D"));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_NE(cache.lookup("a", snap.generation()), nullptr);
  EXPECT_EQ(cache.lookup("b", snap.generation()), nullptr);
  EXPECT_NE(cache.lookup("c", snap.generation()), nullptr);
}

TEST(PlanCacheLru, GenerationMismatchInvalidatesResidentEntry) {
  Database db = small_db();
  Snapshot snap = db.snapshot();
  PlanCache cache;
  cache.insert("k", build_statement(snap, {parse_select("select dirst from D")}));
  // Same generation: hit.
  EXPECT_NE(cache.lookup("k", snap.generation()), nullptr);
  // A writer moved the catalog on: the entry is dropped, not served.
  EXPECT_EQ(cache.lookup("k", snap.generation() + 1), nullptr);
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.entries, 0u);
  // And the key misses cold afterwards, even at the original generation.
  EXPECT_EQ(cache.lookup("k", snap.generation()), nullptr);
}

TEST(PlanCacheLru, TracksEstimatedBytes) {
  Database db = small_db();
  Snapshot snap = db.snapshot();
  PlanCache cache;
  EXPECT_EQ(cache.stats().bytes, 0u);
  cache.insert("k", build_statement(snap, {parse_select("select dirst from D")}));
  EXPECT_GT(cache.stats().bytes, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
}

/// plan::is_empty over unit `u` of a cached statement, as Server runs it.
bool cached_is_empty(const CachedStatement& cs, std::size_t u) {
  return plan::is_empty(*cs.units.at(u), {});
}

// The emptiness check over cached plans must agree with the generic
// executor and with a fresh plan on every invariant of the real protocol —
// including the corrupted-table case where it must find the violating rows.
TEST(IsEmpty, AgreesWithGenericExecutorOnAsuraSuite) {
  auto spec = asura::make_asura();
  Database db = spec->database();
  Snapshot snap = db.snapshot();
  std::size_t units = 0;
  for (const auto& inv : spec->invariants()) {
    const std::vector<SelectStmt> stmts = parse_invariant(inv.sql);
    CachedStatementPtr cs = build_statement(snap, stmts);
    ASSERT_EQ(cs->units.size(), stmts.size());
    for (std::size_t u = 0; u < cs->units.size(); ++u, ++units) {
      EXPECT_EQ(cached_is_empty(*cs, u), run_unit(*cs, u, 1).row_count() == 0)
          << inv.name << " unit " << u;
      EXPECT_EQ(cached_is_empty(*cs, u), snap.catalog().check_empty(stmts[u]))
          << inv.name << " unit " << u;
    }
  }
  EXPECT_GE(units, spec->invariants().size());
}

TEST(IsEmpty, FindsInjectedViolation) {
  auto spec = asura::make_asura();
  Database db = spec->database();
  Table d = db.get("D");
  std::vector<Value> row(d.row(0).begin(), d.row(0).end());
  row[d.schema().index_of("dirst")] = V("MESI");
  row[d.schema().index_of("dirpv")] = V("zero");
  d.append(RowView(row));
  db.put("D", std::move(d));
  Snapshot snap = db.snapshot();

  // dirpv-consistency style probe: MESI directory entries must name an
  // owner, so the corrupted row is a violation the probe must surface.
  const char* sql =
      "select dirst, dirpv from D where dirst = \"MESI\" and dirpv = \"zero\"";
  CachedStatementPtr cs = build_statement(snap, {parse_select(sql)});
  EXPECT_FALSE(cached_is_empty(*cs, 0));
  EXPECT_EQ(cached_is_empty(*cs, 0), snap.catalog().check_empty(sql));
}

TEST(RunUnit, MatchesDatabaseQueryResults) {
  auto spec = asura::make_asura();
  Database db = spec->database();
  Snapshot snap = db.snapshot();
  const char* sql =
      "select inmsg, bdirst, locmsg from D where isrequest(inmsg) and "
      "not bdirst = \"I\" and not locmsg = \"retry\"";
  CachedStatementPtr cs =
      build_statement(snap, {parse_select(sql)});
  EXPECT_EQ(to_csv(run_unit(*cs, 0, 1)), to_csv(db.query(sql).rows));
}

}  // namespace
}  // namespace ccsql::serve
