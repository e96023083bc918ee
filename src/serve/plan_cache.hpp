#pragma once

// Prepared-statement cache of the serving layer (DESIGN.md section 12).
//
// Key: a mode marker ("Q"/"E") plus the whitespace-normalized statement
// text, plus — for parameterized executions — the bound parameter values,
// each prefixed with its length.  Value: the statements' prepared plans
// (plan::plan_select) — scans bound to the tables of the exact frozen
// Database (snapshot) the entry pins, lookups to those tables' hash
// indexes, predicates compiled against that snapshot's function
// registry.  A prepared plan depends on the schemas of the tables it reads
// and on the registry, never on their rows: a lookup at another
// generation (a writer swapped a table since) rebinds the entry to the
// caller's snapshot (plan::rebind) when every table it reads kept its
// schema and the registry is the same, and drops it otherwise, so the
// caller re-plans.
//
// A cached plan tree is executed in place, concurrently, with no per-query
// clone: the executor's read-only entry points (the const execute() and
// is_empty()) run with ExecContext::record off, under which no PlanNode
// field is ever written.  Compiled RowFilters and CrossRoutes are likewise
// shared — their evaluation is const and thread-safe.

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

/// One cached, immutable compilation product.  Holds the snapshot's frozen
/// Database its plans read, whose function registry is the one their
/// predicates were compiled against (a rebind requires the new snapshot
/// to share it): the plans' bound-table pointers, index caches and
/// function-registry references stay valid for as long as the entry
/// lives, regardless of what the live database does.  A rebound entry
/// holds the snapshot it was rebound to, never an older one.
struct CachedStatement {
  /// One prepared plan per SELECT of the statement (invariants may union
  /// several probes).
  std::vector<plan::PlanPtr> units;
  /// The frozen database the plans read; its generation is the entry's.
  std::shared_ptr<const Database> catalog;
  std::size_t bytes = 0;      // estimated footprint (MemTracker kPlans)
  obs::MemReservation mem;
};

using CachedStatementPtr = std::shared_ptr<const CachedStatement>;

struct PlanCacheStats {
  /// Lookups served without planning: resident entries at the caller's
  /// generation, plus rebinds.
  std::uint64_t hits = 0;
  /// Lookups the caller must plan for: no entry, or a stale one that
  /// could not be rebound.
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Lookups that found a resident entry at another generation (a writer
  /// swapped a table since it was planned): each is then either rebound
  /// (a hit) or dropped (a miss), so this is a subset of neither.
  std::uint64_t invalidations = 0;
  /// Stale entries rebound to the caller's snapshot (also hits).
  std::uint64_t rebinds = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// Thread-safe LRU map: normalized SQL -> CachedStatement, bounded by entry
/// count.  An entry at another generation than the caller's snapshot is
/// rebound to it on lookup, or dropped when it cannot be.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  static constexpr std::size_t kDefaultCapacity = 256;

  /// The entry for `key` bound to `snap`, else nullptr (the caller plans).
  /// A hit refreshes LRU recency.  A resident entry at another generation
  /// is counted as an invalidation and rebound to `snap` (rebind_statement)
  /// outside the lock; the rebound entry replaces it unless it is older
  /// than what is resident by then.  An entry that cannot be rebound is
  /// dropped if it is older than `snap`, and left for newer readers if
  /// not.
  [[nodiscard]] CachedStatementPtr lookup(const std::string& key,
                                          const Snapshot& snap);

  /// Inserts (or replaces) `entry` under `key`, evicting the least
  /// recently used entries beyond capacity.  A resident entry bound to a
  /// newer generation stays: a reader still holding an older snapshot
  /// never moves the cache back.
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
  void insert_locked(const std::string& key, CachedStatementPtr entry);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Slot> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Slot>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t rebinds_ = 0;
  std::size_t bytes_ = 0;
};

/// Plans and prepares `stmts` against `snap`'s database, as every query is
/// (plan::plan_select).
[[nodiscard]] CachedStatementPtr build_statement(
    const Snapshot& snap, const std::vector<SelectStmt>& stmts);

/// `cs` rebound to `snap`'s database (plan::rebind): the same compiled
/// plans over `snap`'s tables, holding `snap` and not `cs`'s snapshot.
/// Null when `snap` calls another function registry than `cs` compiled
/// against, or a table a plan reads is gone or changed its schema.
[[nodiscard]] CachedStatementPtr rebind_statement(const CachedStatement& cs,
                                                  const Snapshot& snap);

/// Executes unit `index` of a cached statement in place — no clone — with
/// `jobs` parallel lanes.
[[nodiscard]] Table run_unit(const CachedStatement& cs, std::size_t index,
                             std::size_t jobs);

}  // namespace ccsql::serve
