#pragma once

// Prepared-statement cache of the serving layer (DESIGN.md section 12).
//
// Key: a mode marker ("Q"/"E") plus the whitespace-normalized statement
// text, plus — for parameterized executions — the bound parameter values,
// each prefixed with its length.  Value: the parsed statements with their
// optimized plans — predicates pre-compiled to bytecode, scans bound to the
// tables of the exact catalog snapshot they were planned against (which
// the entry pins), lookups to those tables' hash indexes.  An entry is
// valid only while the live catalog is still at the generation the entry
// captured; a lookup at any other generation misses (counted as an
// invalidation) and the caller re-plans.
//
// A cached plan tree is executed in place, concurrently, with no per-query
// clone: the executor's read-only entry points (the const execute() and
// is_empty()) run with ExecContext::record off, under which no PlanNode
// field is ever written.  Pre-compiled RowFilters and CrossRoutes are
// likewise shared — their evaluation is const and thread-safe.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/mem.hpp"
#include "plan/executor.hpp"
#include "plan/ir.hpp"
#include "relational/database.hpp"

namespace ccsql::serve {

/// Canonical statement text for cache keying: runs of whitespace outside
/// quoted strings collapse to one space, leading/trailing whitespace is
/// trimmed.  Case is preserved — identifiers are case-sensitive, so folding
/// would alias distinct statements.
[[nodiscard]] std::string normalize_sql(std::string_view sql);

/// One-pass cache key: `mode` marker, a separator below any SQL character
/// (0x1f), then the normalized text — built in a single allocation, since
/// every cached query builds one.
[[nodiscard]] std::string cache_key(char mode, std::string_view sql);

/// `stmt` with every $i parameter atom (in WHERE clauses, including union
/// branches) replaced by values[i-1] as a quoted literal.
[[nodiscard]] SelectStmt bind_params(const SelectStmt& stmt,
                                     const std::vector<std::string>& values);

/// Highest parameter slot referenced anywhere in `stmt` (0 = none).
[[nodiscard]] std::size_t param_count(const SelectStmt& stmt);

/// One cached, immutable compilation product.  Holds the snapshot catalog
/// it was planned against: the plans' bound-table pointers, index caches
/// and function-registry references stay valid for as long as the entry
/// lives, regardless of what the live catalog does.
struct CachedStatement {
  /// One SELECT of the statement (invariants may union several probes).
  struct Unit {
    SelectStmt stmt;    // parameter-free parse tree
    plan::PlanPtr plan; // optimized; kSelect nodes carry compiled filters
  };

  std::vector<Unit> units;
  std::uint64_t generation = 0;
  std::shared_ptr<const Catalog> catalog;
  std::size_t bytes = 0;      // estimated footprint (MemTracker kPlans)
  obs::MemReservation mem;
};

using CachedStatementPtr = std::shared_ptr<const CachedStatement>;

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Misses caused by a generation mismatch on a resident entry (a writer
  /// swapped a table since the plan was built).  Also counted in misses.
  std::uint64_t invalidations = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// Thread-safe LRU map: normalized SQL -> CachedStatement, bounded by entry
/// count.  Entries whose generation no longer matches the live catalog are
/// dropped on lookup.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  static constexpr std::size_t kDefaultCapacity = 256;

  /// The entry for `key` if present and planned at `generation`, else
  /// nullptr.  A hit refreshes LRU recency; a resident entry at the wrong
  /// generation is evicted and counted as an invalidation.
  [[nodiscard]] CachedStatementPtr lookup(const std::string& key,
                                          std::uint64_t generation);

  /// Inserts (or replaces) `entry` under `key`, evicting the least
  /// recently used entries beyond capacity.
  void insert(const std::string& key, CachedStatementPtr entry);

  void clear();

  [[nodiscard]] PlanCacheStats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Slot {
    std::string key;
    CachedStatementPtr entry;
  };

  void evict_lru_locked();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Slot> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Slot>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
  std::size_t bytes_ = 0;
};

/// Plans, optimizes and pre-compiles `stmts` against `snap`'s catalog:
/// predicates compiled, scans bound to the snapshot's tables, lookups to
/// their indexes (built here if need be).
[[nodiscard]] CachedStatementPtr build_statement(const Snapshot& snap,
                                                 std::vector<SelectStmt> stmts);

/// The context every execution of `cs` runs in: its pinned snapshot
/// catalog and `jobs` parallel lanes.  The executor's read-only entry
/// points (the const execute(), is_empty()) run a unit's plan in place
/// with it — no clone.
[[nodiscard]] plan::ExecContext exec_context(const CachedStatement& cs,
                                             std::size_t jobs = 1);

/// Executes unit `index` of a cached statement in place, with `jobs`
/// parallel lanes.
[[nodiscard]] Table run_unit(const CachedStatement& cs, std::size_t index,
                             std::size_t jobs);

}  // namespace ccsql::serve
