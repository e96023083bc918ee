#pragma once

// Vectorized batch execution for the plan operators (DESIGN.md section 10).
//
// RowFilter is the executor's one predicate object: it compiles a resolved
// Expr into a bytecode program and filters candidate rows — a dense row
// range (a scan or a morsel) or a list of ascending row ids (an index
// bucket) — in batches of kBatchRows rows, letting the program refine each
// batch's selection vector (bc::Program::eval_batch).  Row-index output
// keeps candidate order, so the selection is byte-identical to a row-by-row
// scan — including under a row budget, where the filter stops at exactly
// the row that fills the limit, as a row-by-row loop would.
//
// Morsels and batches share the same 1024-row grain: a parallel morsel is
// one batch, so the parallel and serial paths see identical batch
// boundaries and emit identical selections.

#include <cstddef>
#include <span>
#include <vector>

#include "relational/bytecode.hpp"
#include "relational/expr.hpp"
#include "relational/table.hpp"

namespace ccsql::plan::vec {

/// Rows per evaluation batch; equal to the executor's morsel grain so a
/// morsel is exactly one batch.
inline constexpr std::size_t kBatchRows = 1024;

/// One base pointer per column of the filtered table (Table::column_ptrs).
using Columns = std::span<const Value* const>;

class RowFilter {
 public:
  RowFilter() = default;

  /// Compiles `expr` for rows of `row_schema` (identifier-hood from
  /// `full_schema`).
  RowFilter(const Expr& expr, const Schema& row_schema,
            const Schema& full_schema, const FunctionRegistry* functions);

  /// Distinct columns this predicate reads per row — the bytes-touched
  /// basis for EXPLAIN ANALYZE.
  [[nodiscard]] std::size_t columns_read() const {
    return prog_.columns_read();
  }

  /// Batch-filters rows [begin, end) of the table whose columns are `cols`,
  /// appending passing row indices to `sel` in ascending order, stopping
  /// once `limit` indices have been appended in total across the call.
  /// Returns the number of rows visited — under a limit, exactly the index
  /// distance up to and including the row that filled it.
  std::size_t filter_range(Columns cols, std::size_t begin, std::size_t end,
                           std::size_t limit, bc::Sel& sel) const;

  /// filter_range over the ascending row ids `rows` (an index bucket)
  /// instead of a dense range.  Returns the number of ids visited: under a
  /// limit, the position in `rows` of the row that filled it, plus one.
  std::size_t filter_rows(Columns cols, std::span<const std::size_t> rows,
                          std::size_t limit, bc::Sel& sel) const;

  /// Appends the members of `rows` (ascending row ids) that pass to `pass`,
  /// in order, with no row budget: a guard condition splitting a selection.
  void refine(Columns cols, std::span<const std::uint32_t> rows,
              bc::Sel& pass) const;

 private:
  bc::Program prog_;
};

}  // namespace ccsql::plan::vec
