#pragma once

// Plan execution.  Walks a prepared PlanNode tree (planner.hpp: every scan
// bound to its table, every lookup to its hash index, every Select's
// predicate compiled) bottom-up, materialising Tables, with fusions the
// naive interpreter cannot do.  It only reads what preparation resolved:
// it looks up no table, builds no lookup index and compiles nothing.  A
// Scan, IndexLookup or Select first decides which rows it yields — ids
// into its source table, id pairs for a join — and only then gathers
// them, so a count or an emptiness check reads the ids and never builds
// the rows:
//
//  - Select over Scan evaluates the compiled predicate directly against the
//    base table's rows (no intermediate copy of the whole table);
//  - Select over IndexLookup filters the index bucket's row ids in place;
//  - Select over Cross — every join — routes on its equalities and guards
//    (route.hpp): each left row meets only its candidate right rows, the
//    residual filters a narrow table of those pairs, and the surviving
//    rows are gathered from each side by index — the wide product is never
//    materialised; and
//  - IndexLookup and the route's keyed probes of a Scan right side use the
//    base table's one cached hash index per column set (Table::index_on),
//    so repeated queries against catalog tables reuse the index across
//    calls: a lookup's is resolved by prepare(), the route's per execution
//    (CrossRoute::right_side).
//
// The optimizer merges every Select chain into one conjunction, so each of
// these fused paths runs exactly one compiled filter: the executor never
// sees a Select over a Select.
//
// A row budget (`limit`) flows down where sound — most importantly the
// budget of 1 is_empty() asks for, which stops every operator at its first
// produced row.  Each executed node records its output size in
// `actual_rows` for EXPLAIN.

#include "plan/ir.hpp"

namespace ccsql::plan {

/// How a prepared plan runs.
struct ExecContext {
  /// Parallel lanes for the morsel-driven operators (filter, routed probe
  /// and index build, union branches); <= 1 executes serially.  Results
  /// are bit-identical at any value: morsel boundaries depend only on input
  /// size, and per-morsel output is concatenated in morsel order.  Paths
  /// with a row budget (emptiness checks) always run serially.
  std::size_t jobs = 1;
  /// EXPLAIN ANALYZE: time every operator and fill PlanNode::stats.  Costs
  /// two steady_clock reads per operator invocation, so it defaults off.
  bool analyze = false;
  /// Write runtime state (actual_rows, OpStats row counts) into the plan
  /// nodes.  On by default — EXPLAIN reads it after execution.  The const
  /// execute() overload clears it so a shared cached plan can run on many
  /// threads at once without cloning (the tree is never written).
  bool record = true;
};

/// Executes the prepared plan `root`, producing at most `limit` rows
/// (kNoLimit = all).
Table execute(PlanNode& root, const ExecContext& ctx,
              std::size_t limit = kNoLimit);

/// Read-only execution of a shared plan (prepared-statement cache): forces
/// ctx.record/analyze off, so the tree is not mutated and concurrent
/// executions of the same PlanNode tree are race-free.
Table execute(const PlanNode& root, const ExecContext& ctx,
              std::size_t limit = kNoLimit);

/// True when `root` yields no rows: the paper's invariant check.  Read-only
/// like the const execute().  Project, Distinct and Sort cannot change
/// emptiness and are skipped; the rows below are picked at a budget of 1
/// and never gathered — a Select stops at its first passing row.
[[nodiscard]] bool is_empty(const PlanNode& root, const ExecContext& ctx);

}  // namespace ccsql::plan
