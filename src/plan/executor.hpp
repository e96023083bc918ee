#pragma once

// Plan execution.  Walks a PlanNode tree bottom-up, materialising Tables,
// with fusions the naive interpreter cannot do:
//
//  - Select over Scan evaluates the compiled predicate directly against the
//    base table's rows (no intermediate copy of the whole table);
//  - Select over IndexLookup filters the index bucket's row ids in place;
//  - Select over Cross routes on its guards (route.hpp): each left row
//    meets only its candidate right rows, the residual filters a narrow
//    table of those pairs, and the surviving rows are gathered from each
//    side by index — the wide product is never materialised; and
//  - IndexLookup and HashJoin over a Scan build side probe the base table's
//    one cached hash index per column set (Table::index_on), so repeated
//    queries against catalog tables reuse the index across calls.
//
// The optimizer merges every Select chain into one conjunction, so each of
// these fused paths runs exactly one compiled filter: the executor never
// sees a Select over a Select.
//
// A row budget (`limit`) flows down where sound — most importantly the
// budget of 1 used by emptiness checks, which stops every operator at its
// first produced row.  Each executed node records its output size in
// `actual_rows` for EXPLAIN.

#include "plan/ir.hpp"
#include "relational/query.hpp"

namespace ccsql::plan {

/// Everything a plan needs at run time.
struct ExecContext {
  /// Resolves named scans; may be null when every scan is bound to a table.
  const Catalog* catalog = nullptr;
  /// WHERE-clause predicate functions (usually &catalog->functions()).
  const FunctionRegistry* functions = nullptr;
  /// Identifier-hood schema override for predicate compilation; defaults to
  /// each node's own schema.  See PlannerOptions::ident_schema.
  const Schema* ident_schema = nullptr;
  /// Parallel lanes for the morsel-driven operators (filter, hash-join
  /// build/probe, union branches, count); <= 1 executes serially.  Results
  /// are bit-identical at any value: morsel boundaries depend only on input
  /// size, and per-morsel output is concatenated in morsel order.  Paths
  /// with a row budget (exists mode / LIMIT) always run serially.
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

/// Executes `root`, producing at most `limit` rows (kNoLimit = all).
Table execute(PlanNode& root, const ExecContext& ctx,
              std::size_t limit = kNoLimit);

/// Read-only execution of a shared plan (prepared-statement cache): forces
/// ctx.record/analyze off, so the tree is not mutated and concurrent
/// executions of the same PlanNode tree are race-free.
Table execute(const PlanNode& root, const ExecContext& ctx,
              std::size_t limit = kNoLimit);

}  // namespace ccsql::plan
