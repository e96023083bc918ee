#pragma once

// The central database of the paper, in which all controller tables live.
// Every subsystem (invariant checker, VCG composition, mapping, simulator
// setup, serving layer, CLI) issues SQL through one:
//
//   Database db = spec.database();     // a cheap copy: tables are shared
//   QueryResult r = db.query("select * from t where s = 'I'");
//   bool holds   = db.check_empty(invariant_sql);
//   std::string p = db.explain(sql);
//
// A Database owns its tables, the function registry WHERE clauses call,
// and the session's execution setting: the parallel lane count `jobs`
// (0 = the --jobs / CCSQL_JOBS / hardware default) that the morsel-driven
// operators in src/plan fan out across the shared core::Pool.  Results are
// bit-identical at any jobs value.  query / check_empty are the one SELECT
// and emptiness implementation: a Snapshot is a frozen Database, and
// serve::Server's uncached leg runs them on it.  The naive reference
// executor the planner is property-tested against lives in
// tests/support/naive_exec.

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

/// A statement's rows.
///
/// Results are columnar like the tables they come from: column() hands out
/// contiguous spans with no copying, and is the primary way to consume a
/// result (DESIGN.md section 13).  row() remains as a gather adapter for
/// cold consumers.
struct QueryResult {
  Table rows;

  [[nodiscard]] std::size_t row_count() const noexcept {
    return rows.row_count();
  }
  [[nodiscard]] std::size_t column_count() const noexcept {
    return rows.column_count();
  }
  [[nodiscard]] bool empty() const noexcept { return rows.row_count() == 0; }

  /// Column-first access: a contiguous read-only span of one result column.
  [[nodiscard]] ColumnView column(std::size_t j) const noexcept {
    return rows.column(j);
  }
  [[nodiscard]] ColumnView column(std::string_view name) const {
    return rows.column(name);
  }

  /// Row-at-a-time adapter (gather path — prefer column() in bulk code).
  [[nodiscard]] RowView row(std::size_t i) const noexcept {
    return rows.row(i);
  }
};

class Snapshot;

/// Tables and the function registry are held by shared_ptr: copying a
/// Database (a session copy, or the serving layer's snapshot) shares row
/// storage, lazily-built hash indexes and the registry with the original,
/// so a copy is O(#tables) pointer copies.  Every mutation is
/// copy-on-write — it replaces the affected pointer and bumps
/// generation(), never touching rows or functions a concurrent reader may
/// hold.
class Database {
 public:
  /// One resident table plus its MemTracker reservation.  shared_ptr-held
  /// so copies share storage (and the bytes are counted once, for as long
  /// as any holder keeps the version alive).
  struct StoredTable {
    explicit StoredTable(Table t)
        : table(std::move(t)),
          mem(obs::MemTracker::Category::kTables, table.memory_bytes()) {}
    Table table;
    obs::MemReservation mem;
  };
  using TablePtr = std::shared_ptr<const StoredTable>;
  using TableMap = std::map<std::string, TablePtr, std::less<>>;

  // ---- session settings ----------------------------------------------------

  /// Parallel lanes for this session's queries; 0 = process default
  /// (core::Pool::default_jobs, i.e. --jobs / CCSQL_JOBS / hardware).
  Database& set_jobs(std::size_t jobs) {
    jobs_ = jobs;
    return *this;
  }
  /// The resolved lane count (never 0).
  [[nodiscard]] std::size_t jobs() const;

  // ---- tables --------------------------------------------------------------

  /// Inserts or replaces a table.
  void put(std::string name, Table table);

  [[nodiscard]] bool has(std::string_view name) const;

  /// Throws BindError if absent.
  [[nodiscard]] const Table& get(std::string_view name) const;

  /// The registry WHERE clauses call.  Copies and snapshots share one
  /// registry — compiled predicates point into it — until a copy asks for
  /// it mutably: this overload then gives that copy its own registry
  /// (copy-on-write), so what any other holder compiled against stays
  /// unchanged and alive, and bumps generation() as any mutation does.
  /// Mutate through the returned reference before the next copy or
  /// snapshot, not after.
  [[nodiscard]] FunctionRegistry& functions();
  [[nodiscard]] const FunctionRegistry& functions() const noexcept {
    return *functions_;
  }

  [[nodiscard]] const TableMap& tables() const noexcept { return tables_; }

  /// Monotonic mutation counter: put / drop / insert and the mutable
  /// functions() each bump it.  A snapshot at one generation sees exactly
  /// the tables and functions of that generation.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  // ---- snapshots -----------------------------------------------------------

  /// An immutable copy of this database as of now (O(#tables) pointer
  /// copies; the tables themselves are shared).  Copies of the returned
  /// Snapshot share that frozen Database, so a reader that needs the
  /// current view repeatedly keeps a Snapshot rather than calling this
  /// again (serve::Server publishes one per writer swap).  The caller must
  /// serialize snapshot() against mutations.
  [[nodiscard]] Snapshot snapshot() const;

  // ---- queries -------------------------------------------------------------

  /// The one SELECT path: plans `stmt` through src/plan and executes it on
  /// jobs() pool lanes.  Every SELECT — a Snapshot's, CREATE TABLE AS's —
  /// runs here, so each opens one query.select span and counts
  /// query.selects / query.rows_emitted.
  [[nodiscard]] QueryResult query(const SelectStmt& stmt) const;
  [[nodiscard]] QueryResult query(std::string_view select_text) const {
    return query(parse_select(select_text));
  }

  /// The one emptiness probe: true iff `stmt` yields no rows.  Plans it and
  /// asks plan::is_empty, which stops at the first row and gathers none,
  /// serially — parallelism for invariants fans out across the suite, not
  /// within one probe.  Counts query.emptiness_probes.
  [[nodiscard]] bool check_empty(const SelectStmt& stmt) const;
  /// Parses invariant text (see parse_invariant) and evaluates it: true iff
  /// every constituent SELECT yields an empty result.
  [[nodiscard]] bool check_empty(std::string_view invariant_text) const;

  /// Plans, executes, and renders the plan with est vs actual rows.
  [[nodiscard]] std::string explain(std::string_view select_text) const;

  /// EXPLAIN ANALYZE: like explain(), but every operator is profiled (wall
  /// time incl/self, rows in/out, batches, morsels, selection density,
  /// hash-build sizes) and a process-memory summary line (tables / indexes /
  /// hash builds, live and peak) is appended to the plan text.
  [[nodiscard]] std::string explain_analyze(std::string_view select_text) const;

  /// Parses and executes a full statement.  SELECT returns its result;
  /// CREATE TABLE ... AS SELECT materialises the result under the new name
  /// and returns it (the paper's flow for the implementation tables);
  /// DROP TABLE / INSERT INTO return an empty unit table.
  Table execute(std::string_view statement_text);
  Table execute(const Statement& stmt);

 private:
  TableMap tables_;
  std::uint64_t generation_ = 0;
  std::shared_ptr<FunctionRegistry> functions_ =
      std::make_shared<FunctionRegistry>();
  std::size_t jobs_ = 0;  // 0 = follow the process-wide default
};

/// An immutable point-in-time Database — its tables, functions and session
/// jobs setting.  Cheap to copy (a shared_ptr); safe to query from any
/// thread through catalog().  The tables — rows and their lazily-built
/// hash indexes — are shared with whatever versions the live database
/// still holds, and stay valid after the live side regenerates them: a
/// writer swap never blocks or invalidates a reader.
class Snapshot {
 public:
  /// An empty snapshot; catalog() throws until one is assigned.
  Snapshot() = default;
  Snapshot(const Snapshot& other);
  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(const Snapshot& other);
  Snapshot& operator=(Snapshot&& other) noexcept;
  ~Snapshot();

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  /// The generation this snapshot captured (0 for an empty snapshot).
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return state_ ? state_->generation() : 0;
  }
  /// The frozen database, shared by every copy of this snapshot.  Throws
  /// BindError on an empty snapshot.
  [[nodiscard]] const Database& catalog() const;
  [[nodiscard]] const std::shared_ptr<const Database>& shared_catalog()
      const noexcept {
    return state_;
  }

  /// Live snapshot handles process-wide — the serve.snapshot.active gauge.
  [[nodiscard]] static std::size_t active() noexcept;

 private:
  friend class Database;
  explicit Snapshot(std::shared_ptr<const Database> state);

  std::shared_ptr<const Database> state_;
};

}  // namespace ccsql
