#pragma once

// The naive reference executor: the differential oracle the planner
// (src/plan) is property-tested against.  It materialises the FROM cross
// product, filters it through the interpreted CompiledExpr walk, then
// projects — no rewrites, no indexes, no parallelism, no early exit.
// Production SQL always plans; this library is linked only by tests and by
// bench_query's naive-vs-planned legs.

#include <functional>
#include <string_view>

#include "relational/database.hpp"
#include "relational/expr.hpp"

namespace ccsql::naive {

/// sigma: the rows of `t` satisfying `pred`, in order — the row-at-a-time
/// filter the naive executor runs its interpreted predicates through.
[[nodiscard]] Table select(const Table& t,
                           const std::function<bool(RowView)>& pred);

/// Executes `stmt` against `db` the naive way: the rows Database::query must
/// produce.
[[nodiscard]] Table run(const Database& db, const SelectStmt& stmt);

/// Parses invariant text (see parse_invariant) and returns true iff every
/// constituent SELECT yields no rows under run().
[[nodiscard]] bool check_empty(const Database& db,
                               std::string_view invariant_text);

/// select(pred, cross(left, right)) by materialising the whole cross
/// product — the oracle for plan::cross_select.  `ident_schema` decides
/// which bare identifiers in `pred` are columns, as in plan::cross_select.
[[nodiscard]] Table cross_select(const Table& left, const Table& right,
                                 const Expr& pred, const Schema& ident_schema,
                                 const FunctionRegistry* functions = nullptr);

}  // namespace ccsql::naive
