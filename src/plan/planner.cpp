#include "plan/planner.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "plan/explain.hpp"

namespace ccsql::plan {
namespace {

/// A Cross node over `l` and `r` (schema = concatenation; duplicate column
/// names throw SchemaError just like Table::cross would).
PlanPtr make_cross(PlanPtr l, PlanPtr r) {
  PlanPtr cross = make_node(PlanNode::Kind::kCross);
  std::vector<Column> cols = l->schema->columns();
  for (const Column& c : r->schema->columns()) cols.push_back(c);
  cross->schema = make_schema(std::move(cols));
  cross->children.push_back(std::move(l));
  cross->children.push_back(std::move(r));
  return cross;
}

PlanPtr make_select(PlanPtr child, Expr pred) {
  PlanPtr sel = make_node(PlanNode::Kind::kSelect);
  sel->schema = child->schema;
  sel->predicate = std::move(pred);
  sel->children.push_back(std::move(child));
  return sel;
}

/// The plan of one SELECT without its union branches / ORDER BY:
/// scans crossed left-to-right, WHERE, then count/distinct/projection.
PlanPtr build_core(const Catalog& db, const SelectStmt& stmt) {
  PlanPtr cur;
  for (const TableRef& ref : stmt.from) {
    const Table& base = db.get(ref.table);
    PlanPtr scan = make_node(PlanNode::Kind::kScan);
    scan->table_name = ref.table;
    scan->alias = ref.alias;
    scan->schema = scan_schema(base.schema(), ref.alias);
    scan->est_rows = static_cast<double>(base.row_count());
    cur = cur ? make_cross(std::move(cur), std::move(scan)) : std::move(scan);
  }
  if (stmt.where) cur = make_select(std::move(cur), *stmt.where);
  if (stmt.count_star) {
    PlanPtr count = make_node(PlanNode::Kind::kCount);
    count->schema = make_schema({{"count", ColumnKind::kOutput}});
    count->children.push_back(std::move(cur));
    return count;
  }
  if (stmt.star) {
    if (!stmt.distinct) return cur;
    PlanPtr d = make_node(PlanNode::Kind::kDistinct);
    d->schema = cur->schema;
    d->children.push_back(std::move(cur));
    return d;
  }
  PlanPtr proj = make_node(PlanNode::Kind::kProject);
  proj->schema = cur->schema->project(stmt.columns);
  proj->columns = stmt.columns;
  proj->distinct = stmt.distinct;
  proj->children.push_back(std::move(cur));
  return proj;
}

}  // namespace

PlanPtr build_plan(const Catalog& db, const SelectStmt& stmt) {
  PlanPtr root = build_core(db, stmt);
  if (!stmt.union_with.empty()) {
    PlanPtr u = make_node(PlanNode::Kind::kUnion);
    u->schema = root->schema;
    u->children.push_back(std::move(root));
    for (const SelectStmt& branch : stmt.union_with) {
      u->children.push_back(build_plan(db, branch));
    }
    root = std::move(u);
  }
  if (!stmt.order_by.empty()) {
    PlanPtr sort = make_node(PlanNode::Kind::kSort);
    sort->schema = root->schema;
    sort->order_by = stmt.order_by;
    sort->children.push_back(std::move(root));
    root = std::move(sort);
  }
  return root;
}

PlanPtr plan_select(const Catalog& db, const SelectStmt& stmt,
                    const PlannerOptions& opts) {
  PlanPtr root = build_plan(db, stmt);
  optimize(root, opts);
  return root;
}

Table run_select(const Catalog& db, const SelectStmt& stmt,
                 const PlannerOptions& opts) {
  CCSQL_SPAN(span, "plan.query", "plan");
  PlanPtr root = plan_select(db, stmt, opts);
  ExecContext ctx{&db, &db.functions(), opts.ident_schema, opts.jobs,
                  opts.analyze};
  return execute(*root, ctx);
}

Table cross_select(const Table& left, const Table& right, const Expr& pred,
                   const Schema& ident_schema,
                   const FunctionRegistry* functions, std::size_t jobs,
                   std::size_t* candidates) {
  CCSQL_SPAN(span, "plan.cross_select", "plan");
  auto scan_of = [](const Table& t) {
    PlanPtr scan = make_node(PlanNode::Kind::kScan);
    scan->bound = &t;
    scan->schema = t.schema_ptr();
    scan->est_rows = static_cast<double>(t.row_count());
    return scan;
  };
  PlanPtr root =
      make_select(make_cross(scan_of(left), scan_of(right)), pred);
  PlannerOptions opts;
  opts.ident_schema = &ident_schema;
  optimize(root, opts);
  ExecContext ctx{nullptr, functions, &ident_schema, jobs};
  Table out = execute(*root, ctx);
  if (candidates != nullptr) {
    // The Cross under the Select pairs the two sides; its actual rows are
    // the pairs the route built.
    const PlanNode* pairing = root.get();
    while (pairing->kind == PlanNode::Kind::kSelect) {
      pairing = &pairing->child();
    }
    *candidates = pairing->actual_rows;
  }
  return out;
}

std::string explain(const Catalog& db, const SelectStmt& stmt,
                    const PlannerOptions& opts) {
  PlanPtr root = plan_select(db, stmt, opts);
  ExecContext ctx{&db, &db.functions(), opts.ident_schema, opts.jobs,
                  opts.analyze};
  (void)execute(*root, ctx);
  return opts.analyze ? render_analyze(*root) : render(*root);
}

std::string explain_sql(const Catalog& db, std::string_view select_text,
                        const PlannerOptions& opts) {
  return explain(db, parse_select(select_text), opts);
}

}  // namespace ccsql::plan
