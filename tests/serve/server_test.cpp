// serve::Server: the cached-vs-fresh differential over the full ASURA
// invariant suite (against the naive executor), writer invalidation and
// rebinding through the public API, prepared-statement execution, the published
// stats, and drive()'s writer swap count.  LRU eviction is covered in
// plan_cache_test.
#include "serve/server.hpp"
#include "serve/session.hpp"

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pool.hpp"
#include "obs/mem.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/error.hpp"
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
  const Database& fresh = spec().database();
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

// Every path prepares its plans the same way, before executing them, so
// a union branch no execution reaches is compiled all the same: the first
// branch holds rows, so a short-circuiting check never runs the second,
// and its unknown function must fail the check on every path alike.
TEST(Server, EveryCheckPathPreparesEveryUnionBranch) {
  const Database& db = spec().database();
  const std::string first = "select dirst from D where dirst = MESI";
  ASSERT_FALSE(db.check_empty(first));
  const std::string inv = first + " union select dirst from D where foo(dirst)";
  ServerOptions off;
  off.use_plan_cache = false;
  Server cached(db);
  Server uncached(db, off);
  const auto expect_unknown_function = [](const char* path, auto check) {
    try {
      (void)check();
      ADD_FAILURE() << path << " answered instead of throwing";
    } catch (const BindError& e) {
      EXPECT_STREQ(e.what(), "unknown function: foo") << path;
    }
  };
  expect_unknown_function("Database", [&] { return db.check_empty(inv); });
  expect_unknown_function("cached Server",
                          [&] { return cached.check_empty(inv); });
  expect_unknown_function("uncached Server",
                          [&] { return uncached.check_empty(inv); });
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

// A cached plan is rebound after a swap only while every table it reads
// keeps its schema and the function registry is the same one.  Re-putting
// a read table with another schema, dropping it, or re-registering a
// function drops the entry instead: the statement is planned again and
// answers — or fails with the same BindError — as the uncached leg does.
TEST(Server, SchemaAndFunctionChangesReplanInsteadOfRebinding) {
  ServerOptions off;
  off.use_plan_cache = false;
  Server cached(spec().database());
  Server uncached(spec().database(), off);
  const std::string reads_d =
      "select inmsg, dirpv from D where isrequest(inmsg) and dirst = "
      "\"MESI\"";
  const std::string reads_m = "select inmsg from M where isrequest(inmsg)";
  const auto answer = [](Server& server, const std::string& sql) {
    try {
      return to_csv(server.query(sql).rows);
    } catch (const BindError& e) {
      return std::string("BindError: ") + e.what();
    }
  };
  // Applies `mutate` to both servers, then asks both statements of both:
  // `stale` resident entries must be found, and `rebound` of them rebound
  // rather than re-planned.
  const auto step = [&](const char* what,
                        const std::function<void(Database&)>& mutate,
                        std::uint64_t stale, std::uint64_t rebound) {
    SCOPED_TRACE(what);
    cached.update(mutate);
    uncached.update(mutate);
    const PlanCacheStats before = cached.stats().cache;
    for (const std::string& sql : {reads_d, reads_m}) {
      EXPECT_EQ(answer(cached, sql), answer(uncached, sql)) << sql;
    }
    const PlanCacheStats after = cached.stats().cache;
    EXPECT_EQ(after.invalidations - before.invalidations, stale);
    EXPECT_EQ(after.rebinds - before.rebinds, rebound);
  };
  for (const std::string& sql : {reads_d, reads_m}) {
    EXPECT_EQ(answer(cached, sql), answer(uncached, sql)) << sql;
  }
  step("D re-put with another schema", [](Database& db) {
    db.put(asura::kDirectory,
           db.query("select dirst, dirpv, inmsg from D").rows);
  }, 2, 1);
  step("isrequest re-registered", [](Database& db) {
    db.functions().add_unary("isrequest",
                             [](Value v) { return v == V("mread"); });
  }, 2, 0);
  ASSERT_EQ(answer(cached, reads_m), "inmsg\nmread\n");
  step("M dropped", [](Database& db) { (void)db.execute("drop table M"); },
       2, 1);
  EXPECT_EQ(answer(cached, reads_m), "BindError: unknown table: M");
  step("dirpv gone from D", [](Database& db) {
    db.put(asura::kDirectory, db.query("select dirst, inmsg from D").rows);
  }, 1, 0);  // the failed statement over M left no entry
  EXPECT_EQ(answer(cached, reads_d).rfind("BindError: ", 0), 0u);
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
  Database cat;
  Table t(Schema::of({"a", "b"}));
  t.append({V("x\x1e"), V("y")});
  t.append({V("x"), V("\x1ey")});
  cat.put("T", std::move(t));
  Server server{cat};
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

// The writer makes every swap it is asked for, even when the sessions
// finish first: with no statements to run, they finish at once.
TEST(Drive, WriterPerformsEveryRequestedSwap) {
  Server server(spec().database());
  DriveOptions opts;
  opts.sessions = 1;
  opts.writer_swaps = 4;
  opts.writer_table = asura::kDirectory;
  const DriveReport report = drive(server, {}, opts);
  EXPECT_EQ(report.writer_swaps, 4u);
  EXPECT_EQ(server.stats().writer_swaps, 4u);
}

// A session's error reaches the caller, after the writer is joined.
TEST(Drive, FailingStatementThrowsAfterJoiningTheWriter) {
  Server server(spec().database());
  DriveOptions opts;
  opts.sessions = 1;
  opts.check_empty = false;
  opts.writer_swaps = 2;
  opts.writer_table = asura::kDirectory;
  EXPECT_THROW((void)drive(server, {"select x from NOPE"}, opts), BindError);
  EXPECT_EQ(server.stats().writer_swaps, 2u);
}

}  // namespace
}  // namespace ccsql::serve
