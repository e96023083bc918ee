// serve::Server: the cached-vs-fresh differential over the full ASURA
// invariant suite (against the naive executor), writer invalidation
// through the public API, prepared-statement execution, and the published
// stats.  LRU eviction is covered in plan_cache_test.
#include "serve/server.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pool.hpp"
#include "obs/mem.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/format.hpp"
#include "support/naive_exec.hpp"

namespace ccsql::serve {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

/// Every invariant of the suite as both a check_empty text and a list of
/// SELECTs whose results we can compare row-for-row.
std::vector<std::string> invariant_sqls() {
  std::vector<std::string> out;
  for (const auto& inv : spec().invariants()) out.push_back(inv.sql);
  return out;
}

// The acceptance differential: for every invariant query, the server's
// cached answer must equal a fresh evaluation through the naive executor
// (naive::check_empty, tests/support), whose predicates take the
// interpreted CompiledExpr walk.  The second server pass answers from the
// cache (asserted via stats), so this exercises the cached path, not just
// first compilation.
TEST(Server, CachedMatchesFresh) {
  const std::vector<std::string> sqls = invariant_sqls();
  const Catalog& fresh = spec().database().catalog();
  Server server(spec().database());
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& sql : sqls) {
      EXPECT_EQ(server.check_empty(sql), naive::check_empty(fresh, sql))
          << sql;
    }
  }
  const ServerStats s = server.stats();
  EXPECT_GE(s.cache.hits, sqls.size())
      << "second pass should answer from the cache";
  EXPECT_EQ(s.uncached_queries, 0u);
}

TEST(Server, QueryResultsMatchDatabaseRowForRow) {
  Database fresh = spec().database();
  Server server(spec().database());
  const std::vector<std::string> probes = {
      "select dirst, dirpv from D",
      "select inmsg, bdirst from D where isrequest(inmsg)",
      "select dirst from D where dirst = \"MESI\" and dirpv = \"zero\"",
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& sql : probes) {
      EXPECT_EQ(to_csv(server.query(sql).rows), to_csv(fresh.query(sql).rows))
          << sql;
    }
  }
}

TEST(Server, CacheOffLegStillCorrectAndCountsUncached) {
  ServerOptions opts;
  opts.use_plan_cache = false;
  Server server(spec().database());
  Server nocache(spec().database(), opts);
  for (const std::string& sql : invariant_sqls()) {
    EXPECT_EQ(nocache.check_empty(sql), server.check_empty(sql)) << sql;
  }
  const ServerStats s = nocache.stats();
  EXPECT_EQ(s.uncached_queries, s.queries);
  EXPECT_GT(s.uncached_queries, 0u);
  EXPECT_EQ(s.cache.entries, 0u);
}

TEST(Server, WriterSwapInvalidatesCachedPlansAndStaysCorrect) {
  Server server(spec().database());
  const std::string probe =
      "select dirst, dirpv from D where dirst = \"MESI\" and dirpv = \"zero\"";
  EXPECT_TRUE(server.check_empty(probe));
  const std::uint64_t gen0 = server.stats().generation;

  // The writer corrupts D: a MESI line with an empty presence vector.
  server.update([](Database& db) {
    Table d = db.get(asura::kDirectory);
    std::vector<Value> row(d.row(0).begin(), d.row(0).end());
    row[d.schema().index_of("dirst")] = V("MESI");
    row[d.schema().index_of("dirpv")] = V("zero");
    d.append(RowView(row));
    db.put(asura::kDirectory, std::move(d));
  });

  // The cached plan must not answer from the old table.
  EXPECT_FALSE(server.check_empty(probe));
  const ServerStats s = server.stats();
  EXPECT_EQ(s.writer_swaps, 1u);
  EXPECT_GT(s.generation, gen0);
  EXPECT_GT(s.cache.invalidations, 0u);
}

TEST(Server, PreparedExecuteEqualsLiteralQuery) {
  Server server(spec().database());
  const Server::Prepared p = server.prepare(
      "select  dirst, dirpv from D where dirst = $1 and not dirpv = $2");
  EXPECT_EQ(p.params, 2u);
  // prepare() normalizes: the doubled space collapses.
  EXPECT_EQ(p.sql, "select dirst, dirpv from D where dirst = $1 and not dirpv = $2");

  const QueryResult bound = server.execute(p, {"MESI", "zero"});
  const QueryResult literal = server.query(
      "select dirst, dirpv from D where dirst = \"MESI\" and not dirpv = "
      "\"zero\"");
  EXPECT_EQ(to_csv(bound.rows), to_csv(literal.rows));
  // Distinct bindings answer differently and are cached separately.
  const QueryResult other = server.execute(p, {"I", "zero"});
  EXPECT_NE(to_csv(bound.rows), to_csv(other.rows));
  EXPECT_EQ(to_csv(server.execute(p, {"MESI", "zero"}).rows),
            to_csv(bound.rows));
  EXPECT_GT(server.stats().cache.hits, 0u);
}

// Bound values holding the key's value separator: at the parent, the
// bindings {"x\x1e", "y"} and {"x", "\x1ey"} joined to one cache key, so
// the second execute() ran the first binding's plan and answered with its
// row.  Length-prefixed values keep the two keys apart.
TEST(Server, BindingsHoldingTheSeparatorDoNotShareAPlan) {
  Catalog cat;
  Table t(Schema::of({"a", "b"}));
  t.append({V("x\x1e"), V("y")});
  t.append({V("x"), V("\x1ey")});
  cat.put("T", std::move(t));
  Server server{Database(std::move(cat))};
  const Server::Prepared p =
      server.prepare("select a, b from T where a = $1 and b = $2");
  for (const std::vector<std::string>& values :
       {std::vector<std::string>{"x\x1e", "y"},
        std::vector<std::string>{"x", "\x1ey"}}) {
    const QueryResult r = server.execute(p, values);
    ASSERT_EQ(r.rows.row_count(), 1u);
    EXPECT_EQ(r.rows.at(0, "a"), V(values[0]));
    EXPECT_EQ(r.rows.at(0, "b"), V(values[1]));
  }
  EXPECT_EQ(server.stats().cache.misses, 2u);
}

TEST(Server, PublishStatsExposesServeGauges) {
  Server server(spec().database());
  (void)server.check_empty(invariant_sqls().front());
  (void)server.check_empty(invariant_sqls().front());
  obs::Metrics metrics;
  server.publish_stats(metrics);
  EXPECT_EQ(metrics.counter("serve.queries"), 2u);
  EXPECT_EQ(metrics.counter("serve.plan_cache.hits"), 1u);
  EXPECT_EQ(metrics.counter("serve.plan_cache.misses"), 1u);
  EXPECT_EQ(metrics.counter("serve.plan_cache.entries"), 1u);
  EXPECT_EQ(metrics.counter("serve.writer_swaps"), 0u);
}

TEST(Server, PlanCacheMemoryReturnsToBaselineOnDestruction) {
  const std::uint64_t base =
      obs::MemTracker::global().usage(obs::MemTracker::Category::kPlans).live;
  {
    Server server(spec().database());
    for (const std::string& sql : invariant_sqls()) {
      (void)server.check_empty(sql);
    }
    EXPECT_GT(
        obs::MemTracker::global().usage(obs::MemTracker::Category::kPlans).live,
        base);
  }
  EXPECT_EQ(
      obs::MemTracker::global().usage(obs::MemTracker::Category::kPlans).live,
      base);
}

}  // namespace
}  // namespace ccsql::serve
