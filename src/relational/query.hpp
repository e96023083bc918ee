#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "obs/mem.hpp"
#include "relational/function_registry.hpp"
#include "relational/parser.hpp"
#include "relational/table.hpp"

namespace ccsql {

/// A named collection of tables — the "central database" of the paper in
/// which all controller tables live.  Also owns the function registry used
/// when compiling WHERE clauses.
///
/// Tables are held by shared_ptr: copying a catalog (the serving layer's
/// snapshot) shares row storage and lazily-built TupleKey indexes with the
/// original, so a snapshot is O(#tables) pointer copies.  Every mutation is
/// copy-on-write — it replaces the affected pointer and bumps generation(),
/// never touching rows a concurrent reader may hold.
class Catalog {
 public:
  /// One resident table plus its MemTracker reservation.  shared_ptr-held
  /// so catalog copies share storage (and the bytes are counted once, for
  /// as long as any holder keeps the version alive).
  struct StoredTable {
    explicit StoredTable(Table t)
        : table(std::move(t)),
          mem(obs::MemTracker::Category::kTables, table.memory_bytes()) {}
    Table table;
    obs::MemReservation mem;
  };
  using TablePtr = std::shared_ptr<const StoredTable>;
  using TableMap = std::map<std::string, TablePtr, std::less<>>;

  /// Inserts or replaces a table.
  void put(std::string name, Table table);

  [[nodiscard]] bool has(std::string_view name) const;

  /// Throws BindError if absent.
  [[nodiscard]] const Table& get(std::string_view name) const;

  [[nodiscard]] FunctionRegistry& functions() noexcept { return functions_; }
  [[nodiscard]] const FunctionRegistry& functions() const noexcept {
    return functions_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return tables_.size(); }
  [[nodiscard]] const TableMap& tables() const noexcept { return tables_; }

  /// Monotonic mutation counter: put / drop / insert each bump it.  Cached
  /// plans and snapshots are valid exactly while the generation they were
  /// built against still matches.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// The one SELECT path: plans `stmt` through src/plan and executes it on
  /// up to `jobs` pool lanes (bit-identical at any jobs).  Database,
  /// Snapshot and CREATE TABLE AS all run here, so every SELECT opens one
  /// query.select span and counts query.selects / query.rows_emitted.
  [[nodiscard]] Table query(const SelectStmt& stmt, std::size_t jobs = 1) const;
  /// Parses and executes SELECT text serially.
  [[nodiscard]] Table query(std::string_view select_text) const;

  /// The one emptiness probe: true iff `stmt` yields no rows.  Runs in
  /// exists mode (stops at the first row) and serially — parallelism for
  /// invariants fans out across the suite, not within one probe.  Counts
  /// query.emptiness_probes.
  [[nodiscard]] bool check_empty(const SelectStmt& stmt) const;
  /// Parses invariant text (see parse_invariant) and evaluates it: returns
  /// true iff every constituent SELECT yields an empty result.
  [[nodiscard]] bool check_empty(std::string_view invariant_text) const;

  /// Parses and executes a full statement.  SELECT returns its result;
  /// CREATE TABLE ... AS SELECT materialises the result under the new name
  /// and returns it (the paper's flow for the implementation tables);
  /// DROP TABLE / INSERT INTO return an empty unit table.  SELECTs run on up
  /// to `jobs` pool lanes.
  Table execute(std::string_view statement_text, std::size_t jobs = 1);
  Table execute(const Statement& stmt, std::size_t jobs = 1);

 private:
  TableMap tables_;
  std::uint64_t generation_ = 0;
  FunctionRegistry functions_;
};

}  // namespace ccsql
