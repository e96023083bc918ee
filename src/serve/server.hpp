#pragma once

// The serving layer: a thread-safe front end over one ccsql::Database for
// many concurrent client sessions (DESIGN.md section 12).
//
//   serve::Server server(spec.database());
//   bool ok = server.check_empty(invariant_sql);      // any thread
//   server.update([&](Database& db) { db.put("D", fresh); });  // writer
//
// Readers never touch the live catalog: every query runs against the
// current copy-on-write Snapshot, which shares table storage and indexes
// with the live side and stays valid across writer swaps.  Parsing and
// planning are amortized through the prepared-statement PlanCache, keyed
// on normalized SQL and invalidated by catalog generation.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "relational/database.hpp"
#include "serve/plan_cache.hpp"

namespace ccsql::serve {

struct ServerOptions {
  /// Off: every query re-parses and re-plans (the bench_serve baseline
  /// leg and the cached-vs-fresh differential oracle).
  bool use_plan_cache = true;
};

struct ServerStats {
  std::uint64_t queries = 0;
  /// Queries that bypassed the cache (ServerOptions::use_plan_cache off).
  std::uint64_t uncached_queries = 0;
  std::uint64_t writer_swaps = 0;
  std::uint64_t generation = 0;
  std::size_t snapshots_active = 0;     // process-wide live Snapshot handles
  PlanCacheStats cache;
};

class Server {
 public:
  explicit Server(Database db, ServerOptions options = {});
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// The current catalog snapshot (cheap: a shared_ptr copy).
  [[nodiscard]] Snapshot snapshot() const;

  /// Executes a SELECT.  Thread-safe; cached when the cache is on.  A
  /// cached plan runs on one lane: serving workloads multiplex many
  /// sessions over the pool, so they parallelise across queries.
  [[nodiscard]] QueryResult query(std::string_view select_text);

  /// True iff every SELECT of the invariant yields no rows.  Thread-safe;
  /// the planned SELECTs are cached per invariant text, and plan::is_empty
  /// runs each in place over the entry's pinned snapshot.
  [[nodiscard]] bool check_empty(std::string_view invariant_text);

  /// A prepared SELECT handle: normalized text plus its parameter arity.
  /// Cheap to copy; execute() resolves it against the cache per call, so a
  /// handle survives catalog generations (it just re-plans after a swap).
  struct Prepared {
    std::string sql;          // normalized statement text
    std::size_t params = 0;   // $N slots the statement references
  };

  [[nodiscard]] Prepared prepare(std::string_view select_text) const;

  /// Executes a prepared statement with `values` bound to $1..$N.  Each
  /// distinct value vector compiles (and caches) its own plan — parameter
  /// domains here are tiny symbol sets, so the key space stays bounded.
  [[nodiscard]] QueryResult execute(const Prepared& prepared,
                                    const std::vector<std::string>& values = {});

  /// Applies a catalog mutation.  Serialized against other writers; the
  /// visible effect for readers is one snapshot swap after `mutator`
  /// returns — in-flight readers keep their old snapshot, new acquisitions
  /// see the new generation.  Cached plans invalidate via the generation
  /// key on their next lookup.
  void update(const std::function<void(Database&)>& mutator);

  [[nodiscard]] ServerStats stats() const;

  /// Folds the serve.* gauges (queries, cache hits/misses/evictions,
  /// snapshot.active, ...) into `metrics` — the --stats one-pager and
  /// trace_summary read these.
  void publish_stats(obs::Metrics& metrics) const;

 private:
  /// The one SELECT path behind query() and execute(): `key` names the
  /// statement in the plan cache, `parse` builds its parse tree (on a cache
  /// miss, or on every call with the cache off).
  [[nodiscard]] QueryResult select(const std::string& key,
                                   const std::function<SelectStmt()>& parse);

  [[nodiscard]] CachedStatementPtr get_or_build(
      const std::string& key, const Snapshot& snap,
      const std::function<std::vector<SelectStmt>()>& parse);

  const ServerOptions options_;
  Database db_;                // guarded by db_mu_ (writers only)
  mutable std::mutex db_mu_;
  Snapshot snap_;              // current published snapshot
  mutable std::mutex snap_mu_;
  PlanCache cache_;

  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> uncached_{0};
  std::atomic<std::uint64_t> writer_swaps_{0};
};

}  // namespace ccsql::serve
