// The prepared-statement layer underneath serve::Server: SQL normalization
// and cache keys, $N parameter plumbing, the LRU/invalidating PlanCache,
// and build_statement/rebind_statement/run_unit/plan::is_empty against the
// ASURA suite.
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

/// plan::is_empty over unit `u` of a cached statement, as Server runs it.
bool cached_is_empty(const CachedStatement& cs, std::size_t u) {
  return plan::is_empty(*cs.units.at(u), {});
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
  EXPECT_NE(cache.lookup("a", snap), nullptr);
  cache.insert("c", build("select dirst, dirpv from D"));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_NE(cache.lookup("a", snap), nullptr);
  EXPECT_EQ(cache.lookup("b", snap), nullptr);
  EXPECT_NE(cache.lookup("c", snap), nullptr);
}

/// The first Scan or IndexLookup down `node`'s first children.
const plan::PlanNode& scan_of(const plan::PlanNode& node) {
  return node.children.empty() ? node : scan_of(node.child());
}

// A writer swap moves the database to a new generation.  A stale entry
// whose tables kept their schemas is rebound: a new entry at the new
// generation that reads only the new tables.  One whose table changed its
// schema is dropped, and the caller re-plans.
TEST(PlanCacheLru, GenerationMismatchInvalidatesResidentEntry) {
  Database db = small_db();
  const Snapshot snap0 = db.snapshot();
  PlanCache cache;
  cache.insert("k", build_statement(snap0, {parse_select("select dirst from D")}));
  // Same generation: hit.
  EXPECT_NE(cache.lookup("k", snap0), nullptr);

  // Same schema, other rows: rebound to the new snapshot.
  Table d(Schema::of({"dirst", "dirpv"}));
  d.append({V("E"), V("one")});
  db.put("D", std::move(d));
  const Snapshot snap1 = db.snapshot();
  const CachedStatementPtr rebound = cache.lookup("k", snap1);
  ASSERT_NE(rebound, nullptr);
  EXPECT_EQ(rebound->catalog, snap1.shared_catalog());
  EXPECT_EQ(scan_of(*rebound->units[0]).bound, &snap1.catalog().get("D"));
  EXPECT_EQ(to_csv(run_unit(*rebound, 0, 1)), "dirst\nE\n");
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.rebinds, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 1u);
  // The rebound entry is resident: the next lookup is a plain hit.
  EXPECT_EQ(cache.lookup("k", snap1), rebound);

  // A reader still on the old snapshot is answered from its own tables,
  // and does not move the cache back.
  const CachedStatementPtr old = cache.lookup("k", snap0);
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(scan_of(*old->units[0]).bound, &snap0.catalog().get("D"));
  EXPECT_EQ(cache.lookup("k", snap1), rebound);

  // Another schema: the entry is dropped, not served.
  Table wide(Schema::of({"dirst", "dirpv", "extra"}));
  wide.append({V("S"), V("one"), V("x")});
  db.put("D", std::move(wide));
  const Snapshot snap2 = db.snapshot();
  EXPECT_EQ(cache.lookup("k", snap2), nullptr);
  s = cache.stats();
  EXPECT_EQ(s.invalidations, 3u);
  EXPECT_EQ(s.rebinds, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 0u);
  // And the key misses cold afterwards, even at the rebound generation.
  EXPECT_EQ(cache.lookup("k", snap1), nullptr);
}

// Compiled predicates point into the function registry they were compiled
// against.  A rebound entry shares them, so that registry must outlive the
// database, every older snapshot and the first entry: snapshots share one
// registry rather than copying it.  (With a copy per snapshot and no
// registry check in the rebind, this is a heap-use-after-free under ASan.)
// The spec outlives the entry: its message catalog is what isrequest reads.
TEST(RebindStatement, ReboundEntryOutlivesEveryOlderSnapshot) {
  const char* sql =
      "select inmsg, dirpv from D where dirst = \"MESI\" and "
      "isrequest(inmsg)";
  const auto spec = asura::make_asura();
  CachedStatementPtr rebound;
  std::string want;
  {
    Database db = spec->database();
    // Asking for the registry mutably gives db a copy of its own
    // (copy-on-write), which only db, its snapshots and their entries hold.
    (void)db.functions();
    CachedStatementPtr first = build_statement(db.snapshot(), {parse_select(sql)});
    const Table& d = db.get("D");
    std::vector<std::uint32_t> keep;
    for (std::uint32_t i = 0; i < d.row_count(); i += 2) keep.push_back(i);
    db.put("D", d.gather(keep));
    rebound = rebind_statement(*first, db.snapshot());
    ASSERT_NE(rebound, nullptr);
    want = to_csv(db.query(sql).rows);
  }
  EXPECT_EQ(to_csv(run_unit(*rebound, 0, 1)), want);
  EXPECT_FALSE(cached_is_empty(*rebound, 0));
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
