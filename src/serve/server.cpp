#include "serve/server.hpp"

#include "relational/parser.hpp"

namespace ccsql::serve {
namespace {

/// Precedes each bound parameter value's length in an execute() cache key,
/// and ends it; below any character that can appear in SQL text outside
/// quotes.  (The mode/text separator is cache_key's 0x1f.)
constexpr char kValueSep = '\x1e';

}  // namespace

Server::Server(Database db, ServerOptions options)
    : options_(options), db_(std::move(db)) {
  snap_ = db_.snapshot();
}

Snapshot Server::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return snap_;
}

CachedStatementPtr Server::get_or_build(
    const std::string& key, const Snapshot& snap,
    const std::function<std::vector<SelectStmt>()>& parse) {
  if (CachedStatementPtr hit = cache_.lookup(key, snap)) return hit;
  // Concurrent misses on one key each build; the newest generation's insert
  // stays.  Builds are pure (they touch only the immutable snapshot), so
  // that is merely duplicated work on a cold key, never an inconsistency.
  CachedStatementPtr built = build_statement(snap, parse());
  cache_.insert(key, built);
  return built;
}

QueryResult Server::select(const std::string& key,
                           const std::function<SelectStmt()>& parse) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  Snapshot snap = snapshot();
  if (!options_.use_plan_cache) {
    uncached_.fetch_add(1, std::memory_order_relaxed);
    return snap.catalog().query(parse());
  }
  CachedStatementPtr cs = get_or_build(key, snap, [&] {
    std::vector<SelectStmt> stmts;
    stmts.push_back(parse());
    return stmts;
  });
  return {run_unit(*cs, 0, /*jobs=*/1)};
}

QueryResult Server::query(std::string_view select_text) {
  return select(cache_key('Q', select_text),
                [&] { return parse_select(select_text); });
}

bool Server::check_empty(std::string_view invariant_text) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  Snapshot snap = snapshot();
  if (!options_.use_plan_cache) {
    uncached_.fetch_add(1, std::memory_order_relaxed);
    return snap.catalog().check_empty(invariant_text);
  }
  const std::string key = cache_key('E', invariant_text);
  CachedStatementPtr cs = get_or_build(key, snap, [&] {
    return parse_invariant(std::string_view(key).substr(2));
  });
  for (const plan::PlanPtr& unit : cs->units) {
    if (!plan::is_empty(*unit, {})) return false;
  }
  return true;
}

Server::Prepared Server::prepare(std::string_view select_text) const {
  Prepared p;
  p.sql = normalize_sql(select_text);
  p.params = param_count(parse_select(p.sql));  // also validates the syntax
  return p;
}

QueryResult Server::execute(const Prepared& prepared,
                            const std::vector<std::string>& values) {
  // Each value is length-prefixed: a value holding the separator cannot
  // shift the boundary between it and the next.
  std::string key = cache_key('Q', prepared.sql);
  for (const std::string& v : values) {
    key += kValueSep;
    key += std::to_string(v.size());
    key += kValueSep;
    key += v;
  }
  return select(key, [&] {
    return bind_params(parse_select(prepared.sql), values);
  });
}

void Server::update(const std::function<void(Database&)>& mutator) {
  std::lock_guard<std::mutex> db_lock(db_mu_);
  mutator(db_);
  // One swap publishes the whole mutation: the catalog is frozen anew
  // (table pointers are shared, so this is O(#tables)), and readers pick it
  // up on their next snapshot() — in-flight readers keep the generation
  // they started with.
  Snapshot fresh = db_.snapshot();
  {
    std::lock_guard<std::mutex> snap_lock(snap_mu_);
    snap_ = std::move(fresh);
  }
  writer_swaps_.fetch_add(1, std::memory_order_relaxed);
  CCSQL_COUNT("serve.writer_swaps", 1);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.uncached_queries = uncached_.load(std::memory_order_relaxed);
  s.writer_swaps = writer_swaps_.load(std::memory_order_relaxed);
  s.snapshots_active = Snapshot::active();
  s.cache = cache_.stats();
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    s.generation = snap_.generation();
  }
  return s;
}

void Server::publish_stats(obs::Metrics& metrics) const {
  const ServerStats s = stats();
  metrics.set("serve.queries", s.queries);
  metrics.set("serve.uncached_queries", s.uncached_queries);
  metrics.set("serve.plan_cache.hits", s.cache.hits);
  metrics.set("serve.plan_cache.misses", s.cache.misses);
  metrics.set("serve.plan_cache.evictions", s.cache.evictions);
  metrics.set("serve.plan_cache.invalidations", s.cache.invalidations);
  metrics.set("serve.plan_cache.rebinds", s.cache.rebinds);
  metrics.set("serve.plan_cache.entries", s.cache.entries);
  metrics.set("serve.plan_cache.mem_bytes", s.cache.bytes);
  metrics.set("serve.snapshot.active", s.snapshots_active);
  metrics.set("serve.writer_swaps", s.writer_swaps);
  metrics.set("serve.generation", s.generation);
}

}  // namespace ccsql::serve
