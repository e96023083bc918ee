#pragma once

// Rule-based rewrites over the plan IR (ir.hpp).  optimize() runs the rules
// in a fixed order:
//
//   1. constant folding      — ternary/not/and/or predicates with constant
//                              parts collapse; always-true filters vanish
//   2. conjunct placement    — one walk down the tree carries each WHERE
//                              conjunct to where it applies: into the side
//                              of a Cross holding all its columns; as an
//                              IndexLookup key when it equates a Scan
//                              column with a literal.  What stays at a node
//                              becomes one Select over the conjunction, so
//                              each fused executor path runs one filter; a
//                              join is the Select left over a Cross, its
//                              cross-side equalities the route's keys
//   3. join column pruning   — the columns a Project reads are carried
//                              down its join chain: every Select over a
//                              Cross keeps only what is read above it
//   4. exists mode           — for emptiness checks: sorts are dropped and
//                              the plan is capped with Limit 1
//   5. estimation            — bottom-up est_rows for EXPLAIN
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

/// Appends the conjuncts of `e` to `out`, nested `and`s flattened, in
/// order: the units conjunct placement and guard routing work on.
void collect_conjuncts(const Expr& e, std::vector<Expr>& out);

/// Constant-folds one predicate expression (exposed for tests): resolves
/// ternaries/negations/conjunctions with constant parts.  Sets `changed`
/// when it rewrote anything (never clears it).
[[nodiscard]] Expr fold_expr(const Expr& e, bool& changed);

}  // namespace ccsql::plan
