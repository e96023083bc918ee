#include "relational/database.hpp"

#include <atomic>

#include "core/pool.hpp"
#include "obs/obs.hpp"
#include "plan/planner.hpp"
#include "relational/error.hpp"

namespace ccsql {
namespace {

/// Live Snapshot handles, process-wide (the serve.snapshot.active gauge).
std::atomic<std::size_t> g_active_snapshots{0};

/// A snapshot's frozen database copy plus the MemTracker reservation
/// covering the copy's own footprint.  Column storage and indexes are
/// shared with the live database (COW per column) and stay accounted by
/// their original StoredTable reservations; what a snapshot newly
/// allocates is the table map copy itself (nodes, names, shared_ptr
/// control blocks).
struct FrozenDatabase {
  Database db;
  obs::MemReservation mem;
};

std::size_t copy_bytes(const Database& db) {
  std::size_t bytes = sizeof(Database);
  for (const auto& [name, ptr] : db.tables()) {
    // One map node: key string, shared_ptr, and node/control overhead.
    bytes += name.capacity() + sizeof(void*) * 6;
  }
  return bytes;
}

}  // namespace

// ---- Snapshot ---------------------------------------------------------------

Snapshot::Snapshot(std::shared_ptr<const Database> state)
    : state_(std::move(state)) {
  if (state_) g_active_snapshots.fetch_add(1, std::memory_order_relaxed);
}

Snapshot::Snapshot(const Snapshot& other) : state_(other.state_) {
  if (state_) g_active_snapshots.fetch_add(1, std::memory_order_relaxed);
}

Snapshot::Snapshot(Snapshot&& other) noexcept
    : state_(std::move(other.state_)) {
  other.state_.reset();
}

Snapshot& Snapshot::operator=(const Snapshot& other) {
  if (this != &other) {
    if (other.state_ && !state_) {
      g_active_snapshots.fetch_add(1, std::memory_order_relaxed);
    } else if (!other.state_ && state_) {
      g_active_snapshots.fetch_sub(1, std::memory_order_relaxed);
    }
    state_ = other.state_;
  }
  return *this;
}

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    if (state_) g_active_snapshots.fetch_sub(1, std::memory_order_relaxed);
    state_ = std::move(other.state_);
    other.state_.reset();
  }
  return *this;
}

Snapshot::~Snapshot() {
  if (state_) g_active_snapshots.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t Snapshot::active() noexcept {
  return g_active_snapshots.load(std::memory_order_relaxed);
}

const Database& Snapshot::catalog() const {
  if (!state_) throw BindError("empty snapshot");
  return *state_;
}

// ---- Database ---------------------------------------------------------------

std::size_t Database::jobs() const {
  return jobs_ != 0 ? jobs_ : core::Pool::default_jobs();
}

FunctionRegistry& Database::functions() {
  // Another holder — a copy, a snapshot, a cached plan — may have compiled
  // against the shared registry: mutate a private copy instead.
  if (functions_.use_count() > 1) {
    functions_ = std::make_shared<FunctionRegistry>(*functions_);
  }
  ++generation_;
  return *functions_;
}

void Database::put(std::string name, Table table) {
  tables_.insert_or_assign(std::move(name),
                           std::make_shared<const StoredTable>(std::move(table)));
  ++generation_;
}

bool Database::has(std::string_view name) const {
  return tables_.find(name) != tables_.end();
}

const Table& Database::get(std::string_view name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw BindError("unknown table: " + std::string(name));
  }
  return it->second->table;
}

Snapshot Database::snapshot() const {
  auto frozen = std::make_shared<FrozenDatabase>(FrozenDatabase{*this, {}});
  frozen->mem = obs::MemReservation(obs::MemTracker::Category::kTables,
                                    copy_bytes(frozen->db));
  // Aliased: snapshots see a plain `const Database`, the reservation rides
  // along and releases when the last copy of this snapshot drops.
  const Database* view = &frozen->db;
  return Snapshot(std::shared_ptr<const Database>(std::move(frozen), view));
}

QueryResult Database::query(const SelectStmt& stmt) const {
  CCSQL_SPAN(span, "query.select", "relational");
  span.arg("table", stmt.from.empty() ? "" : stmt.from[0].table);
  span.arg("jobs", static_cast<std::uint64_t>(jobs()));
  Table result = plan::run_select(*this, stmt, plan::ExecContext{jobs()});
  span.arg("rows_emitted", result.row_count());
  CCSQL_COUNT("query.selects", 1);
  CCSQL_COUNT("query.rows_emitted", result.row_count());
  return {std::move(result)};
}

bool Database::check_empty(const SelectStmt& stmt) const {
  CCSQL_SPAN(span, "query.check_empty", "relational");
  CCSQL_COUNT("query.emptiness_probes", 1);
  return plan::is_empty(*plan::plan_select(*this, stmt), {});
}

bool Database::check_empty(std::string_view invariant_text) const {
  for (const SelectStmt& s : parse_invariant(invariant_text)) {
    if (!check_empty(s)) return false;
  }
  return true;
}

std::string Database::explain(std::string_view select_text) const {
  return plan::explain_sql(*this, select_text, plan::ExecContext{jobs()});
}

std::string Database::explain_analyze(std::string_view select_text) const {
  const plan::ExecContext ctx{jobs(), /*analyze=*/true};
  std::string text = plan::explain_sql(*this, select_text, ctx);
  text += obs::MemTracker::global().summary();
  text += "\n";
  return text;
}

Table Database::execute(std::string_view statement_text) {
  return execute(parse_statement(statement_text));
}

Table Database::execute(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return query(stmt.select).rows;
    case Statement::Kind::kCreateTableAs: {
      Table result = query(stmt.select).rows;
      put(stmt.table, result);
      return result;
    }
    case Statement::Kind::kDropTable: {
      if (!has(stmt.table)) {
        throw BindError("drop table: unknown table " + stmt.table);
      }
      tables_.erase(tables_.find(stmt.table));
      ++generation_;
      return Table();
    }
    case Statement::Kind::kInsert: {
      auto it = tables_.find(stmt.table);
      if (it == tables_.end()) {
        throw BindError("insert into: unknown table " + stmt.table);
      }
      // Copy-on-write: snapshots holding the old version keep its rows and
      // index cache; only this database sees the appended rows.
      Table copy = it->second->table;
      for (const auto& row : stmt.rows) {
        copy.append_texts(row);
      }
      it->second = std::make_shared<const StoredTable>(std::move(copy));
      ++generation_;
      return Table();
    }
  }
  return Table();
}

}  // namespace ccsql
