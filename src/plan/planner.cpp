#include "plan/planner.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "plan/explain.hpp"
#include "plan/route.hpp"
#include "plan/vectorized.hpp"

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
PlanPtr build_core(const Database& db, const SelectStmt& stmt) {
  PlanPtr cur;
  for (const TableRef& ref : stmt.from) {
    const Table& base = db.get(ref.table);
    PlanPtr scan = make_node(PlanNode::Kind::kScan);
    scan->table_name = ref.table;
    scan->bound = &base;
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

/// Points IndexLookup `node` at its bound table's hash index on its key
/// columns, counting whether the table already held it.
void bind_index(PlanNode& node) {
  CCSQL_COUNT(node.bound->has_cached_index(node.key_columns)
                  ? "plan.index_hits"
                  : "plan.index_builds",
              1);
  node.index = &node.bound->index_on(node.key_columns);
}

}  // namespace

PlanPtr build_plan(const Database& db, const SelectStmt& stmt) {
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

// NOLINTNEXTLINE(misc-no-recursion)
void prepare(PlanNode& root, const FunctionRegistry* functions,
             const Schema* ident_schema) {
  if (root.kind == PlanNode::Kind::kIndexLookup) bind_index(root);
  if (root.kind == PlanNode::Kind::kSelect) {
    // Column pruning may narrow a Select over a Cross below what its
    // predicate reads: its Cross's schema decides identifier-hood.
    const PlanNode& child = root.child();
    const bool over_cross = child.kind == PlanNode::Kind::kCross;
    const Schema& ident = ident_schema != nullptr ? *ident_schema
                          : over_cross            ? *child.schema
                                                  : *root.schema;
    if (over_cross) {
      root.route = std::make_shared<const CrossRoute>(
          *root.predicate, *child.child(0).schema, *child.child(1).schema,
          ident, functions);
    } else {
      root.compiled = std::make_shared<const vec::RowFilter>(
          *root.predicate, *root.schema, ident, functions);
    }
  }
  for (PlanPtr& c : root.children) prepare(*c, functions, ident_schema);
}

// NOLINTNEXTLINE(misc-no-recursion)
PlanPtr rebind(const PlanNode& node, const Database& db) {
  auto out = make_node(node.kind);
  if (node.kind == PlanNode::Kind::kScan ||
      node.kind == PlanNode::Kind::kIndexLookup) {
    const auto it = db.tables().find(node.table_name);
    if (it == db.tables().end()) return nullptr;
    const Table& table = it->second->table;
    if (table.schema() != node.bound->schema()) return nullptr;
    out->bound = &table;
  }
  out->schema = node.schema;
  out->table_name = node.table_name;
  out->alias = node.alias;
  out->predicate = node.predicate;
  out->compiled = node.compiled;
  out->route = node.route;
  out->columns = node.columns;
  out->distinct = node.distinct;
  out->key_values = node.key_values;
  out->key_columns = node.key_columns;
  out->order_by = node.order_by;
  out->est_rows = node.est_rows;
  if (node.kind == PlanNode::Kind::kIndexLookup) bind_index(*out);
  out->children.reserve(node.children.size());
  for (const PlanPtr& c : node.children) {
    PlanPtr child = rebind(*c, db);
    if (!child) return nullptr;
    out->children.push_back(std::move(child));
  }
  return out;
}

PlanPtr plan_select(const Database& db, const SelectStmt& stmt) {
  PlanPtr root = build_plan(db, stmt);
  optimize(root);
  prepare(*root, &db.functions());
  return root;
}

Table run_select(const Database& db, const SelectStmt& stmt,
                 const ExecContext& ctx) {
  CCSQL_SPAN(span, "plan.query", "plan");
  PlanPtr root = plan_select(db, stmt);
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
  optimize(root, &ident_schema);
  prepare(*root, functions, &ident_schema);
  Table out = execute(*root, ExecContext{jobs});
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

std::string explain(const Database& db, const SelectStmt& stmt,
                    const ExecContext& ctx) {
  PlanPtr root = plan_select(db, stmt);
  (void)execute(*root, ctx);
  return ctx.analyze ? render_analyze(*root) : render(*root);
}

std::string explain_sql(const Database& db, std::string_view select_text,
                        const ExecContext& ctx) {
  return explain(db, parse_select(select_text), ctx);
}

}  // namespace ccsql::plan
