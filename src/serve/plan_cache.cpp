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
/// reads), the node's own otherwise.
void precompile_filters(plan::PlanNode& n, const Catalog& catalog) {
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
  for (auto& c : n.children) precompile_filters(*c, catalog);
}

/// Precomputes the FastEmpty probe when the plan matches the supported
/// shapes: emptiness-preserving wrappers (Limit >= 1, Project, Distinct,
/// Sort) over at most one compiled kSelect over one kScan or kIndexLookup.
/// The hash index is resolved (and thereby built and cached on the
/// snapshot's table) here, at build time.
std::optional<CachedStatement::Unit::FastEmpty> make_fast_empty(
    const plan::PlanNode& root, const Catalog& catalog) {
  using Kind = plan::PlanNode::Kind;
  const plan::PlanNode* n = &root;
  while (n->kind == Kind::kProject || n->kind == Kind::kDistinct ||
         n->kind == Kind::kSort ||
         (n->kind == Kind::kLimit && n->limit >= 1)) {
    if (n->children.size() != 1) return std::nullopt;
    n = &n->child();
  }
  CachedStatement::Unit::FastEmpty out;
  if (n->kind == Kind::kSelect) {
    if (!n->compiled || n->children.size() != 1) return std::nullopt;
    out.filter = n->compiled.get();
    n = &n->child();
  }
  if (n->kind != Kind::kScan && n->kind != Kind::kIndexLookup) {
    return std::nullopt;
  }
  if (n->bound != nullptr) {
    out.base = n->bound;
  } else if (!n->table_name.empty()) {
    out.base = &catalog.get(n->table_name);
  } else {
    return std::nullopt;
  }
  out.cols = out.base->column_ptrs();
  if (n->kind == Kind::kIndexLookup) {
    std::vector<std::size_t> cols;
    cols.reserve(n->columns.size());
    for (const auto& name : n->columns) {
      cols.push_back(n->schema->index_of(name));
    }
    out.index = &out.base->index_on(cols);
    out.probe = Table::index_key(n->key_values);
  }
  return out;
}

}  // namespace

namespace {

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
                                   std::vector<SelectStmt> stmts,
                                   bool exists_mode) {
  if (!snap.valid()) throw BindError("build_statement: empty snapshot");
  auto out = std::make_shared<CachedStatement>();
  out->exists_mode = exists_mode;
  out->generation = snap.generation();
  out->catalog = snap.shared_catalog();
  plan::PlannerOptions opts;
  opts.exists_only = exists_mode;
  out->units.reserve(stmts.size());
  for (auto& stmt : stmts) {
    CachedStatement::Unit unit;
    unit.plan = plan::plan_select(*out->catalog, stmt, opts);
    precompile_filters(*unit.plan, *out->catalog);
    if (exists_mode) unit.fast = make_fast_empty(*unit.plan, *out->catalog);
    unit.stmt = std::move(stmt);
    out->bytes += estimate_plan_bytes(*unit.plan);
    out->units.push_back(std::move(unit));
  }
  out->mem = obs::MemReservation(obs::MemTracker::Category::kPlans,
                                 out->bytes);
  CCSQL_COUNT("serve.statements_compiled", 1);
  return out;
}

Table run_unit(const CachedStatement& cs, std::size_t index,
               std::size_t jobs) {
  const CachedStatement::Unit& unit = cs.units.at(index);
  plan::ExecContext ctx;
  ctx.catalog = cs.catalog.get();
  ctx.functions = &cs.catalog->functions();
  // Mirrors plan::run_select: the executor itself keeps row-budgeted
  // (exists-mode) paths serial regardless of jobs.
  ctx.jobs = jobs;
  // Const overload: record/analyze forced off, so the shared plan tree is
  // executed in place — no per-query clone, safe from any number of
  // sessions at once.
  const plan::PlanNode& root = *unit.plan;
  return plan::execute(root, ctx, cs.exists_mode ? 1 : plan::kNoLimit);
}

bool unit_is_empty(const CachedStatement& cs, std::size_t index) {
  const CachedStatement::Unit& unit = cs.units.at(index);
  if (!unit.fast) return run_unit(cs, index, 1).row_count() == 0;
  const CachedStatement::Unit::FastEmpty& f = *unit.fast;
  // Candidates: the index bucket's row ids, or every base row.
  const std::vector<std::size_t>* bucket = nullptr;
  if (f.index != nullptr) {
    bucket = f.index->find(f.probe);
    if (bucket == nullptr) return true;
  }
  if (f.filter == nullptr) {
    return (bucket != nullptr ? bucket->size() : f.base->row_count()) == 0;
  }
  // One filter with a row budget of 1: it stops at the first passing row
  // and reports the candidates visited up to and including it, as a
  // row-by-row probe would.
  thread_local bc::Sel hits;
  hits.clear();
  const std::size_t visited =
      bucket != nullptr
          ? f.filter->filter_rows(f.cols, *bucket, 1, hits)
          : f.filter->filter_range(f.cols, 0, f.base->row_count(), 1, hits);
  CCSQL_COUNT("query.rows_scanned", visited);
  return hits.empty();
}

}  // namespace ccsql::serve
