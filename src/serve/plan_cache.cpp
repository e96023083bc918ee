#include "serve/plan_cache.hpp"

#include <algorithm>
#include <cctype>

#include "obs/obs.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"
#include "plan/route.hpp"
#include "plan/vectorized.hpp"
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

/// Attaches a shared pre-compiled route to every kSelect over a kCross and
/// a shared pre-compiled RowFilter to every other kSelect.  The executor
/// runs this tree with ident_schema unset, so both compile with the schema
/// the executor would use deciding identifier-hood: the Cross's for a
/// route (column pruning may narrow the Select below what its predicate
/// reads), the node's own otherwise.  Named scans and lookups are bound to
/// `catalog`'s tables, which the entry pins, and each lookup to its index,
/// built here: no execution looks a table or an index up.
void precompile(plan::PlanNode& n, const Catalog& catalog) {
  if (!n.table_name.empty()) n.bound = &catalog.get(n.table_name);
  if (n.kind == plan::PlanNode::Kind::kIndexLookup) {
    n.index = &n.bound->index_on(n.key_columns);
  }
  if (n.kind == plan::PlanNode::Kind::kSelect && n.predicate) {
    if (n.child().kind == plan::PlanNode::Kind::kCross) {
      n.route = std::make_shared<const plan::CrossRoute>(
          *n.predicate, *n.child().child(0).schema,
          *n.child().child(1).schema, *n.child().schema,
          &catalog.functions());
    } else {
      n.compiled = std::make_shared<const plan::vec::RowFilter>(
          *n.predicate, *n.schema, *n.schema, &catalog.functions());
    }
  }
  for (auto& c : n.children) precompile(*c, catalog);
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
                                     std::uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  if (it->second->entry->generation != generation) {
    // A writer moved the catalog on: the plan (and the snapshot it pins)
    // is stale.  Drop it; the caller re-plans at the new generation.
    ++invalidations_;
    ++misses_;
    bytes_ -= it->second->entry->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->entry;
}

void PlanCache::insert(const std::string& key, CachedStatementPtr entry) {
  if (!entry) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->entry->bytes;
    bytes_ += entry->bytes;
    it->second->entry = std::move(entry);
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
  s.entries = index_.size();
  s.bytes = bytes_;
  return s;
}

CachedStatementPtr build_statement(const Snapshot& snap,
                                   std::vector<SelectStmt> stmts) {
  if (!snap.valid()) throw BindError("build_statement: empty snapshot");
  auto out = std::make_shared<CachedStatement>();
  out->generation = snap.generation();
  out->catalog = snap.shared_catalog();
  out->units.reserve(stmts.size());
  for (auto& stmt : stmts) {
    CachedStatement::Unit unit;
    unit.plan = plan::plan_select(*out->catalog, stmt);
    precompile(*unit.plan, *out->catalog);
    unit.stmt = std::move(stmt);
    out->bytes += estimate_plan_bytes(*unit.plan);
    out->units.push_back(std::move(unit));
  }
  out->mem = obs::MemReservation(obs::MemTracker::Category::kPlans,
                                 out->bytes);
  CCSQL_COUNT("serve.statements_compiled", 1);
  return out;
}

plan::ExecContext exec_context(const CachedStatement& cs, std::size_t jobs) {
  plan::ExecContext ctx;
  ctx.catalog = cs.catalog.get();
  ctx.functions = &cs.catalog->functions();
  ctx.jobs = jobs;
  return ctx;
}

Table run_unit(const CachedStatement& cs, std::size_t index,
               std::size_t jobs) {
  // Const overload: record/analyze forced off, so the shared plan tree is
  // executed in place — no per-query clone, safe from any number of
  // sessions at once.
  const plan::PlanNode& root = *cs.units.at(index).plan;
  return plan::execute(root, exec_context(cs, jobs));
}

}  // namespace ccsql::serve
