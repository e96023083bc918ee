#pragma once

// The query-session facade.  Every subsystem (invariant checker, VCG
// composition, simulator setup, CLI) issues SQL through a Database:
//
//   Database db(spec.database());      // or build a Catalog and wrap it
//   QueryResult r = db.query("select * from t where s = 'I'");
//   bool holds   = db.check_empty(invariant_sql);
//   std::string p = db.explain(sql).plan;
//
// A Database owns its Catalog plus the session's execution setting: the
// parallel lane count `jobs` (0 = the --jobs / CCSQL_JOBS / hardware
// default) that the morsel-driven operators in src/plan fan out across the
// shared core::Pool.  Results are bit-identical at any jobs value.
// Catalog::query / Catalog::check_empty are the one SELECT and emptiness
// implementation: a Database, a Snapshot and serve::Server's uncached leg
// only choose the catalog and the jobs.  The naive reference executor the
// planner is property-tested against lives in tests/support/naive_exec.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "relational/query.hpp"

namespace ccsql {

/// A statement's rows, plus the rendered plan for explain().
///
/// Results are columnar like the tables they come from: column() hands out
/// contiguous spans with no copying, and is the primary way to consume a
/// result (DESIGN.md section 13).  row() remains as a gather adapter for
/// cold consumers.
struct QueryResult {
  Table rows;
  /// Rendered plan with est/actual row counts; filled by explain() only.
  std::string plan;

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

/// An immutable point-in-time view of a Database's catalog, plus the
/// session jobs setting it was taken with.  Cheap to copy (a shared_ptr and a
/// few scalars); safe to query from any thread.  The tables — rows and
/// their lazily-built TupleKey indexes — are shared with whatever versions
/// the live catalog still holds, and stay valid after the live side
/// regenerates them: a writer swap never blocks or invalidates a reader.
class Snapshot {
 public:
  /// An empty snapshot; queries throw until one is assigned.
  Snapshot() = default;
  Snapshot(const Snapshot& other);
  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(const Snapshot& other);
  Snapshot& operator=(Snapshot&& other) noexcept;
  ~Snapshot();

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  /// The catalog generation this snapshot captured.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }
  /// The frozen catalog, shared by every copy of this snapshot.  Throws
  /// BindError on an empty snapshot.
  [[nodiscard]] const Catalog& catalog() const;
  [[nodiscard]] const std::shared_ptr<const Catalog>& shared_catalog()
      const noexcept {
    return state_;
  }
  [[nodiscard]] std::size_t jobs() const;

  /// SELECT / invariant evaluation against the frozen catalog, with the
  /// originating session's jobs setting: Catalog::query / check_empty.
  [[nodiscard]] QueryResult query(std::string_view select_text) const {
    return query(parse_select(select_text));
  }
  [[nodiscard]] QueryResult query(const SelectStmt& stmt) const {
    return {catalog().query(stmt, jobs()), {}};
  }
  [[nodiscard]] bool check_empty(std::string_view invariant_text) const {
    return catalog().check_empty(invariant_text);
  }
  [[nodiscard]] bool check_empty(const SelectStmt& stmt) const {
    return catalog().check_empty(stmt);
  }

  /// Live snapshot handles process-wide — the serve.snapshot.active gauge.
  [[nodiscard]] static std::size_t active() noexcept;

 private:
  friend class Database;
  Snapshot(std::shared_ptr<const Catalog> state, std::uint64_t generation,
           std::size_t jobs);

  std::shared_ptr<const Catalog> state_;
  std::uint64_t generation_ = 0;
  std::size_t jobs_ = 0;
};

class Database {
 public:
  Database() = default;
  explicit Database(Catalog catalog) : catalog_(std::move(catalog)) {}

  // ---- session settings ----------------------------------------------------

  /// Parallel lanes for this session's queries; 0 = process default
  /// (core::Pool::default_jobs, i.e. --jobs / CCSQL_JOBS / hardware).
  Database& set_jobs(std::size_t jobs) {
    jobs_ = jobs;
    return *this;
  }
  /// The resolved lane count (never 0).
  [[nodiscard]] std::size_t jobs() const;

  // ---- catalog -------------------------------------------------------------

  [[nodiscard]] Catalog& catalog() noexcept { return catalog_; }
  [[nodiscard]] const Catalog& catalog() const noexcept { return catalog_; }

  void put(std::string name, Table table) {
    catalog_.put(std::move(name), std::move(table));
  }
  [[nodiscard]] bool has(std::string_view name) const {
    return catalog_.has(name);
  }
  [[nodiscard]] const Table& get(std::string_view name) const {
    return catalog_.get(name);
  }
  [[nodiscard]] FunctionRegistry& functions() noexcept {
    return catalog_.functions();
  }
  [[nodiscard]] const FunctionRegistry& functions() const noexcept {
    return catalog_.functions();
  }
  [[nodiscard]] const Catalog::TableMap& tables() const noexcept {
    return catalog_.tables();
  }

  /// Catalog mutation counter (see Catalog::generation).
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return catalog_.generation();
  }

  // ---- snapshots -----------------------------------------------------------

  /// An immutable view of the catalog as of now: a frozen copy of the
  /// catalog map (O(#tables) pointer copies; the tables themselves are
  /// shared).  Copies of the returned Snapshot share that frozen Catalog,
  /// so a reader that needs the current view repeatedly keeps a Snapshot
  /// rather than calling this again (serve::Server publishes one per
  /// writer swap).  The caller must serialize snapshot() against catalog
  /// mutations.
  [[nodiscard]] Snapshot snapshot() const;

  // ---- queries -------------------------------------------------------------

  /// Plans and executes a SELECT with this session's jobs setting
  /// (Catalog::query).
  [[nodiscard]] QueryResult query(std::string_view select_text) const {
    return query(parse_select(select_text));
  }
  [[nodiscard]] QueryResult query(const SelectStmt& stmt) const {
    return {catalog_.query(stmt, jobs()), {}};
  }

  /// True iff every SELECT of the invariant yields no rows
  /// (Catalog::check_empty: exists mode, serial per statement).
  [[nodiscard]] bool check_empty(std::string_view invariant_text) const {
    return catalog_.check_empty(invariant_text);
  }
  [[nodiscard]] bool check_empty(const SelectStmt& stmt) const {
    return catalog_.check_empty(stmt);
  }

  /// Plans, executes, and renders the plan (est vs actual rows) into
  /// QueryResult::plan.
  [[nodiscard]] QueryResult explain(std::string_view select_text) const;

  /// EXPLAIN ANALYZE: like explain(), but every operator is profiled (wall
  /// time incl/self, rows in/out, batches, morsels, selection density,
  /// hash-build sizes) and a process-memory summary line (tables / indexes /
  /// hash builds, live and peak) is appended to the plan text.
  [[nodiscard]] QueryResult explain_analyze(std::string_view select_text) const;

  /// Full-statement execution (CREATE TABLE AS / DROP / INSERT / SELECT),
  /// mutating the owned catalog; SELECTs run with this session's jobs.
  Table execute(std::string_view statement_text) {
    return catalog_.execute(statement_text, jobs());
  }

 private:
  Catalog catalog_;
  std::size_t jobs_ = 0;  // 0 = follow the process-wide default
};

}  // namespace ccsql
