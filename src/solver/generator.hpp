#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "relational/domain.hpp"
#include "relational/function_registry.hpp"
#include "relational/table.hpp"
#include "solver/column_constraint.hpp"

namespace ccsql {

/// Everything needed to generate one controller table: the target schema
/// (column order = generation order; the paper generates inputs first, then
/// one output column at a time), one value domain per column, and the column
/// constraints.  `functions` may be null when no constraint calls predicates.
struct GenerationInput {
  SchemaPtr schema;
  std::vector<Domain> domains;
  std::vector<ColumnConstraint> constraints;
  const FunctionRegistry* functions = nullptr;

  /// Throws SchemaError/BindError unless every schema column has exactly one
  /// domain and every constraint names a schema column.
  void validate() const;
};

/// Per-column progress record of incremental generation, used by tests and
/// by the generation bench to report where pruning happens.
struct IncrementalTrace {
  struct Step {
    std::string column;
    std::uint64_t rows_before_filter = 0;  // after crossing in the column
    std::uint64_t rows_after = 0;          // after applying constraints
    std::uint64_t micros = 0;              // wall time of this step
    std::vector<std::string> constraints_applied;
  };
  std::vector<Step> steps;
};

/// Incremental generation (paper, section 3): seed with the 0-column unit
/// table, then for each column in schema order cross in its domain and apply
/// every not-yet-applied constraint whose referenced columns are all bound.
/// Equivalent to solving the conjunction, but prunes after every column,
/// which is what turned the paper's 6-hour solve into minutes.
Table generate_incremental(const GenerationInput& input,
                           IncrementalTrace* trace = nullptr);

/// Diagnoses an empty generation result: returns the name of the first
/// column whose addition pruned the table to zero rows (the paper notes an
/// inconsistent constraint set yields a zero-row table), or "" if the table
/// is non-empty.
std::string first_emptying_column(const GenerationInput& input);

}  // namespace ccsql
