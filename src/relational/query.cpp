#include "relational/query.hpp"

#include "obs/obs.hpp"
#include "plan/planner.hpp"
#include "relational/error.hpp"

namespace ccsql {

void Catalog::put(std::string name, Table table) {
  tables_.insert_or_assign(std::move(name),
                           std::make_shared<const StoredTable>(std::move(table)));
  ++generation_;
}

bool Catalog::has(std::string_view name) const {
  return tables_.find(name) != tables_.end();
}

const Table& Catalog::get(std::string_view name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw BindError("unknown table: " + std::string(name));
  }
  return it->second->table;
}

Table Catalog::query(const SelectStmt& stmt, std::size_t jobs) const {
  CCSQL_SPAN(span, "query.select", "relational");
  span.arg("table", stmt.from.empty() ? "" : stmt.from[0].table);
  span.arg("jobs", static_cast<std::uint64_t>(jobs));
  plan::PlannerOptions opts;
  opts.jobs = jobs;
  Table result = plan::run_select(*this, stmt, opts);
  span.arg("rows_emitted", result.row_count());
  CCSQL_COUNT("query.selects", 1);
  CCSQL_COUNT("query.rows_emitted", result.row_count());
  return result;
}

Table Catalog::query(std::string_view select_text) const {
  return query(parse_select(select_text));
}

bool Catalog::check_empty(const SelectStmt& stmt) const {
  CCSQL_SPAN(span, "query.check_empty", "relational");
  CCSQL_COUNT("query.emptiness_probes", 1);
  const plan::PlanPtr root = plan::plan_select(*this, stmt);
  return plan::is_empty(*root, plan::ExecContext{this, &functions()});
}

bool Catalog::check_empty(std::string_view invariant_text) const {
  for (const SelectStmt& s : parse_invariant(invariant_text)) {
    if (!check_empty(s)) return false;
  }
  return true;
}

Table Catalog::execute(std::string_view statement_text, std::size_t jobs) {
  return execute(parse_statement(statement_text), jobs);
}

Table Catalog::execute(const Statement& stmt, std::size_t jobs) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return query(stmt.select, jobs);
    case Statement::Kind::kCreateTableAs: {
      Table result = query(stmt.select, jobs);
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
      // index cache; only this catalog sees the appended rows.
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
