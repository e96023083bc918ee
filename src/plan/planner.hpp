#pragma once

// Planner facade: parse tree -> plan -> optimized plan -> result.  Its SQL
// callers are Catalog::query / Catalog::check_empty (the one SELECT and
// emptiness path, which Database and Snapshot delegate to), EXPLAIN, the
// serving layer's prepared-statement cache (build_statement plans once and
// runs the plan in place) and the solver's per-column steps
// (plan::cross_select, called directly).  The naive reference executor
// lives in tests/support as the differential oracle.

#include <string>
#include <string_view>

#include "plan/executor.hpp"
#include "plan/ir.hpp"
#include "plan/optimizer.hpp"
#include "relational/query.hpp"

namespace ccsql::plan {

/// Builds the naive plan for `stmt`: scans crossed left-to-right, then the
/// WHERE filter, then count/distinct/projection, union branches, ORDER BY.
[[nodiscard]] PlanPtr build_plan(const Catalog& db, const SelectStmt& stmt);

/// build_plan + optimize.
[[nodiscard]] PlanPtr plan_select(const Catalog& db, const SelectStmt& stmt,
                                  const PlannerOptions& opts = {});

/// Plans and executes `stmt` against `db`.
[[nodiscard]] Table run_select(const Catalog& db, const SelectStmt& stmt,
                               const PlannerOptions& opts = {});

/// Plans and runs `select(pred, cross(left, right))` over two free-standing
/// tables — the solver's incremental-generation step.  `ident_schema`
/// decides which bare identifiers in `pred` are columns (the solver passes
/// the full target schema so constraints resolve identically at every
/// prefix width).  When `candidates` is set it receives the number of
/// pairs the step built: the route's candidate pairs, or the whole product
/// when nothing constrains it.
[[nodiscard]] Table cross_select(const Table& left, const Table& right,
                                 const Expr& pred, const Schema& ident_schema,
                                 const FunctionRegistry* functions = nullptr,
                                 std::size_t jobs = 1,
                                 std::size_t* candidates = nullptr);

/// Plans, executes, and renders `stmt` with estimated vs actual row counts
/// (see explain.hpp for the format).
[[nodiscard]] std::string explain(const Catalog& db, const SelectStmt& stmt,
                                  const PlannerOptions& opts = {});
[[nodiscard]] std::string explain_sql(const Catalog& db,
                                      std::string_view select_text,
                                      const PlannerOptions& opts = {});

}  // namespace ccsql::plan
