#include "support/naive_exec.hpp"

#include <cstdint>
#include <vector>

#include "plan/ir.hpp"
#include "relational/parser.hpp"
#include "support/interpreted_expr.hpp"

namespace ccsql::naive {

Table select(const Table& t, const std::function<bool(RowView)>& pred) {
  std::vector<std::uint32_t> sel;
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    if (pred(t.row(i))) sel.push_back(static_cast<std::uint32_t>(i));
  }
  return t.gather(sel);
}

Table run(const Database& db, const SelectStmt& stmt) {
  // The FROM list as one cross product, columns renamed through aliases.
  Table source;
  bool first = true;
  for (const TableRef& ref : stmt.from) {
    const Table& base = db.get(ref.table);
    Table t = ref.alias.empty()
                  ? base
                  : base.with_schema(plan::scan_schema(base.schema(),
                                                       ref.alias));
    source = first ? std::move(t) : Table::cross(source, t);
    first = false;
  }
  Table filtered = source;
  if (stmt.where) {
    CompiledExpr pred = compile(*stmt.where, source.schema(),
                                source.schema(), &db.functions());
    filtered = select(source, pred.predicate());
  }
  Table result;
  if (stmt.count_star) {
    Table counted(make_schema({{"count", ColumnKind::kOutput}}));
    counted.append({Symbol::intern(std::to_string(filtered.row_count()))});
    result = std::move(counted);
  } else if (stmt.star) {
    result = stmt.distinct ? filtered.distinct() : std::move(filtered);
  } else {
    result = filtered.project(stmt.columns, stmt.distinct);
  }
  for (const SelectStmt& u : stmt.union_with) {
    Table branch = run(db, u);
    result = Table::union_distinct(result,
                                   branch.with_schema(result.schema_ptr()));
  }
  if (!stmt.order_by.empty()) result = result.sorted_by(stmt.order_by);
  return result;
}

bool check_empty(const Database& db, std::string_view invariant_text) {
  for (const SelectStmt& s : parse_invariant(invariant_text)) {
    if (run(db, s).row_count() != 0) return false;
  }
  return true;
}

Table cross_select(const Table& left, const Table& right, const Expr& pred,
                   const Schema& ident_schema,
                   const FunctionRegistry* functions) {
  Table crossed = Table::cross(left, right);
  CompiledExpr compiled =
      compile(pred, crossed.schema(), ident_schema, functions);
  return select(crossed, compiled.predicate());
}

}  // namespace ccsql::naive
