#pragma once

// Rule-based rewrites over the plan IR (ir.hpp).  optimize() runs the rules
// in a fixed order:
//
//   1. constant folding     — ternary/not/and/or predicates with constant
//                             parts collapse; always-true filters vanish
//   2. conjunction splitting — Select(a and b) becomes Select(a)·Select(b)
//                             so each conjunct can move independently
//   3. predicate pushdown   — selects sink through Cross into the side whose
//                             columns they mention (to fixpoint)
//   4. hash-join lowering   — column=column equalities left above a Cross
//                             turn it into a HashJoin on those keys (4b:
//                             a Project above it narrows its output)
//   5. index lowering       — column=literal filters directly above a Scan
//                             become an IndexLookup on the table's hash index
//   6. select merging       — every Select chain still standing (over a
//                             Scan, IndexLookup, Cross, ...) folds into one
//                             Select over the conjunction, innermost first,
//                             so each fused executor path runs one filter
//   7. exists mode          — for emptiness checks: sorts are dropped and
//                             the plan is capped with Limit 1
//   8. estimation           — bottom-up est_rows for EXPLAIN
//
// Each applied rewrite bumps the `plan.rewrites` counter.

#include "plan/ir.hpp"

namespace ccsql::plan {

struct PlannerOptions {
  /// The caller only needs to know whether the result is empty (invariant
  /// checks): drop ORDER BY and stop after the first row.
  bool exists_only = false;
  /// Schema deciding identifier-hood of bare atoms (see Atom in
  /// relational/expr.hpp).  Defaults to each node's own schema; the solver
  /// passes the full target schema so partially-built rows resolve the same
  /// way as complete ones.
  const Schema* ident_schema = nullptr;
  /// Parallel lanes for execution (copied into ExecContext::jobs by the
  /// planner entry points); <= 1 runs serially.  Does not affect plan shape.
  std::size_t jobs = 1;
  /// EXPLAIN ANALYZE: profile every operator (PlanNode::stats) and render
  /// the profile next to est/actual.  Does not affect plan shape or rows.
  bool analyze = false;
};

/// Rewrites `root` in place according to `opts`.
void optimize(PlanPtr& root, const PlannerOptions& opts = {});

/// Constant-folds one predicate expression (exposed for tests): resolves
/// ternaries/negations/conjunctions with constant parts.
[[nodiscard]] Expr fold_expr(const Expr& e);

}  // namespace ccsql::plan
