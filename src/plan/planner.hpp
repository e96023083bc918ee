#pragma once

// Planner facade: parse tree -> plan -> optimized plan -> prepared plan ->
// result.  Every caller prepares the same way, once, before execution:
// Database::query / Database::check_empty (the one SELECT and emptiness
// path, a Snapshot's included), EXPLAIN, the serving layer's
// prepared-statement cache (build_statement plans once and runs the plan
// in place) and the solver's per-column steps (plan::cross_select, called
// directly).  The naive reference executor lives in tests/support
// as the differential oracle.

#include <string>
#include <string_view>

#include "plan/executor.hpp"
#include "plan/ir.hpp"
#include "plan/optimizer.hpp"
#include "relational/database.hpp"

namespace ccsql::plan {

/// Builds the naive plan for `stmt`: scans of `db`'s tables, bound to
/// them and crossed left-to-right, then the WHERE filter, then
/// count/distinct/projection, union branches, ORDER BY.
[[nodiscard]] PlanPtr build_plan(const Database& db, const SelectStmt& stmt);

/// Prepares an optimized plan for execution: binds each IndexLookup to its
/// table's hash index (built here if need be, counted as plan.index_builds
/// or plan.index_hits) and compiles each Select's predicate with
/// `functions` — into a CrossRoute over a Cross, a RowFilter elsewhere —
/// in every union branch, executed or not.  `ident_schema` decides which
/// bare identifiers are columns; by default a Select over a Cross reads
/// its Cross's schema (column pruning may narrow the Select below what its
/// predicate reads) and any other Select its own.  Compilation errors
/// (an unknown function, an unbound $N) surface here.
void prepare(PlanNode& root, const FunctionRegistry* functions,
             const Schema* ident_schema = nullptr);

/// A copy of prepared plan `root` that reads `db`'s tables: every Scan and
/// IndexLookup points at the table of its name in `db`, each lookup at
/// that table's hash index (counted as prepare() counts it), and the
/// compiled RowFilters and CrossRoutes are shared with `root`.  Null when
/// a table `root` reads is missing from `db` (a free-standing table, with
/// no name, always is) or has a different schema.  A prepared plan
/// depends on the schemas and functions it was compiled against, never on
/// rows (est_rows only feeds EXPLAIN and is copied as is), so the copy
/// answers as plan_select(db, ...) would — provided `db` calls the same
/// function registry `root` was compiled with, which the caller checks.
[[nodiscard]] PlanPtr rebind(const PlanNode& root, const Database& db);

/// build_plan + optimize + prepare: a plan ready to execute.
[[nodiscard]] PlanPtr plan_select(const Database& db, const SelectStmt& stmt);

/// Plans and executes `stmt` against `db`.
[[nodiscard]] Table run_select(const Database& db, const SelectStmt& stmt,
                               const ExecContext& ctx = {});

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
/// (see explain.hpp for the format), with the per-operator profile when
/// ctx.analyze is set.
[[nodiscard]] std::string explain(const Database& db, const SelectStmt& stmt,
                                  const ExecContext& ctx = {});
[[nodiscard]] std::string explain_sql(const Database& db,
                                      std::string_view select_text,
                                      const ExecContext& ctx = {});

}  // namespace ccsql::plan
