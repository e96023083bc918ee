#include "serve/plan_cache.hpp"

#include <algorithm>
#include <cctype>

#include "obs/obs.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"
#include "relational/error.hpp"

namespace ccsql::serve {
namespace {

/// Rough footprint of a plan tree for the kPlans memory gauge: node
/// structs, their string payloads, and the predicate text (standing in for
/// the compiled program, which is proportional to it).
std::size_t estimate_plan_bytes(const plan::PlanNode& n) {
  std::size_t bytes = sizeof(plan::PlanNode);
  bytes += n.table_name.size() + n.alias.size();
  for (const auto& c : n.columns) bytes += c.size();
  for (const auto& o : n.order_by) bytes += o.size();
  if (n.predicate) bytes += 4 * n.predicate->to_string().size();
  for (const auto& c : n.children) bytes += estimate_plan_bytes(*c);
  return bytes;
}

/// Appends normalize_sql(sql) to `out` (which may hold a key prefix).
void normalize_append(std::string_view sql, std::string& out) {
  const std::size_t start = out.size();
  bool in_quotes = false;
  bool pending_space = false;
  for (const char c : sql) {
    if (in_quotes) {
      out.push_back(c);
      if (c == '"') in_quotes = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = out.size() > start;
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
    if (c == '"') in_quotes = true;
  }
}

}  // namespace

std::string normalize_sql(std::string_view sql) {
  std::string out;
  out.reserve(sql.size());
  normalize_append(sql, out);
  return out;
}

std::string cache_key(char mode, std::string_view sql) {
  std::string out;
  out.reserve(sql.size() + 2);
  out.push_back(mode);
  out.push_back('\x1f');
  normalize_append(sql, out);
  return out;
}

SelectStmt bind_params(const SelectStmt& stmt,
                       const std::vector<std::string>& values) {
  SelectStmt out = stmt;
  if (out.where) out.where = out.where->bind_params(values);
  for (auto& u : out.union_with) u = bind_params(u, values);
  return out;
}

std::size_t param_count(const SelectStmt& stmt) {
  std::size_t n = stmt.where ? stmt.where->param_count() : 0;
  for (const auto& u : stmt.union_with) n = std::max(n, param_count(u));
  return n;
}

CachedStatementPtr PlanCache::lookup(const std::string& key,
                                     const Snapshot& snap) {
  CachedStatementPtr stale;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    if (it->second->entry->catalog->generation() == snap.generation()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      return it->second->entry;
    }
    ++invalidations_;
    stale = it->second->entry;
  }
  // Rebind outside the lock, as a build is done.  `stale` outlives the
  // lock below, so the entry it displaces is freed after unlocking.
  CachedStatementPtr rebound = rebind_statement(*stale, snap);
  std::lock_guard<std::mutex> lock(mu_);
  if (rebound) {
    ++hits_;
    ++rebinds_;
    insert_locked(key, rebound);
    return rebound;
  }
  ++misses_;
  auto it = index_.find(key);
  if (it != index_.end() && it->second->entry == stale &&
      stale->catalog->generation() < snap.generation()) {
    bytes_ -= stale->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  return nullptr;
}

void PlanCache::insert(const std::string& key, CachedStatementPtr entry) {
  if (!entry) return;
  std::lock_guard<std::mutex> lock(mu_);
  insert_locked(key, std::move(entry));
}

void PlanCache::insert_locked(const std::string& key,
                              CachedStatementPtr entry) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    CachedStatementPtr& resident = it->second->entry;
    if (resident->catalog->generation() > entry->catalog->generation()) {
      return;
    }
    bytes_ -= resident->bytes;
    bytes_ += entry->bytes;
    resident = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  bytes_ += entry->bytes;
  lru_.push_front(Slot{key, std::move(entry)});
  index_.emplace(key, lru_.begin());
  while (index_.size() > capacity_) evict_lru_locked();
}

void PlanCache::evict_lru_locked() {
  const Slot& victim = lru_.back();
  bytes_ -= victim.entry->bytes;
  index_.erase(victim.key);
  lru_.pop_back();
  ++evictions_;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.invalidations = invalidations_;
  s.rebinds = rebinds_;
  s.entries = index_.size();
  s.bytes = bytes_;
  return s;
}

CachedStatementPtr build_statement(const Snapshot& snap,
                                   const std::vector<SelectStmt>& stmts) {
  if (!snap.valid()) throw BindError("build_statement: empty snapshot");
  auto out = std::make_shared<CachedStatement>();
  out->catalog = snap.shared_catalog();
  out->units.reserve(stmts.size());
  for (const SelectStmt& stmt : stmts) {
    out->units.push_back(plan::plan_select(*out->catalog, stmt));
    out->bytes += estimate_plan_bytes(*out->units.back());
  }
  out->mem = obs::MemReservation(obs::MemTracker::Category::kPlans,
                                 out->bytes);
  CCSQL_COUNT("serve.statements_compiled", 1);
  return out;
}

CachedStatementPtr rebind_statement(const CachedStatement& cs,
                                    const Snapshot& snap) {
  const Database& db = snap.catalog();
  if (&db.functions() != &cs.catalog->functions()) return nullptr;
  auto out = std::make_shared<CachedStatement>();
  out->catalog = snap.shared_catalog();
  out->units.reserve(cs.units.size());
  for (const plan::PlanPtr& unit : cs.units) {
    plan::PlanPtr rebound = plan::rebind(*unit, db);
    if (!rebound) return nullptr;
    out->units.push_back(std::move(rebound));
  }
  out->bytes = cs.bytes;
  out->mem = obs::MemReservation(obs::MemTracker::Category::kPlans,
                                 out->bytes);
  return out;
}

Table run_unit(const CachedStatement& cs, std::size_t index,
               std::size_t jobs) {
  // Const overload: record/analyze forced off, so the shared plan tree is
  // executed in place — no per-query clone, safe from any number of
  // sessions at once.
  const plan::PlanNode& root = *cs.units.at(index);
  return plan::execute(root, plan::ExecContext{jobs});
}

}  // namespace ccsql::serve
