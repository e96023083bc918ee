#pragma once

// Guard routing for a Select over a Cross (DESIGN.md section 16).
//
// Almost every column constraint is a guarded assignment,
// `c1 ? x = v1 : (c2 ? x = v2 : ...)`.  Filtering the product evaluates
// that guard tree once per product row: once per left row for every right
// row.  A CrossRoute routes before it crosses:
//
//   1. the routed conjuncts are those that are guard trees with a keyed
//      leaf — ternaries whose conditions read only left columns, over
//      leaves;
//   2. their conditions are evaluated once per left row, refining the
//      selection over the left table, so each left row lands in one leaf
//      of each tree;
//   3. each such leaf picks right-side rows, and the row's candidates are
//      what all its leaves pick:
//        keyed      `r = a` or `r in (a, ...)`, each `a` a literal or a left
//                   column: the rows of the right table's cached HashIndex
//                   on `r` that hold one of the values, each once;
//        left-only  every right row or none;
//        any other  every right row, and the leaf stays in the residual;
//   4. the residual — the other conjuncts, plus each routed conjunct with
//      its exact (keyed and left-only) leaves replaced by `true` — runs
//      over the candidate pairs only.
//
// Candidates come in product order (left row ascending, then right row
// ascending), so the output is row for row what filtering the full product
// gives.  A predicate with no keyed leaf pairs every left row with every
// right row: the full product is the degenerate route, not a second path.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "plan/vectorized.hpp"
#include "relational/bytecode.hpp"
#include "relational/expr.hpp"
#include "relational/function_registry.hpp"
#include "relational/schema.hpp"
#include "relational/table.hpp"

namespace ccsql::plan {

class CrossRoute {
 public:
  /// Detects the route of `pred` over `left` x `right` and compiles it.
  /// `ident` decides which bare identifiers are columns, as in
  /// compile_bytecode(); compilation errors surface as they would for the
  /// whole predicate.
  CrossRoute(const Expr& pred, const Schema& left, const Schema& right,
             const Schema& ident, const FunctionRegistry* functions);

  /// True when a conjunct routes through a keyed leaf (EXPLAIN marks the
  /// Cross `[routed]`); false for the degenerate route.
  [[nodiscard]] bool keyed() const noexcept { return !roots_.empty(); }

  /// Appends the candidate pairs of `l` x `r` — tables over the left and
  /// right schemas the route was built for — to `lsel`/`rsel` in product
  /// order, stopping once `limit` pairs are out.
  void candidates(const Table& l, const Table& r, std::size_t limit,
                  bc::Sel& lsel, bc::Sel& rsel) const;

  /// The filter candidate pairs must still pass, over rows of
  /// pair_schema(); nullptr when every candidate passes.
  [[nodiscard]] const vec::RowFilter* residual() const noexcept {
    return residual_ ? &*residual_ : nullptr;
  }
  /// The columns the residual reads: left_columns() then right_columns().
  [[nodiscard]] const SchemaPtr& pair_schema() const noexcept {
    return pair_schema_;
  }
  [[nodiscard]] const std::vector<std::string>& left_columns() const noexcept {
    return left_columns_;
  }
  [[nodiscard]] const std::vector<std::string>& right_columns()
      const noexcept {
    return right_columns_;
  }

 private:
  /// One node of a compiled guard tree.
  struct Node {
    enum class Kind {
      kSplit,  // cond over the left row picks then_node or else_node
      kAll,    // every right row
      kNone,   // no right row
      kKeyed,  // right rows whose right_column holds one of keys
    };
    Kind kind = Kind::kAll;
    vec::RowFilter cond;
    std::uint32_t then_node = 0;
    std::uint32_t else_node = 0;
    std::size_t right_column = 0;
    std::vector<bc::Operand> keys;  // literals or left columns
  };
  struct Builder;

  /// Sends each of `rows` (ascending left row ids) down the tree from
  /// `node`, recording the leaf it reaches in leaf_of[row].
  void split(std::uint32_t node, vec::Columns cols,
             std::span<const std::uint32_t> rows, std::uint32_t* leaf_of,
             bc::Scratch& scratch) const;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> roots_;  // one tree per routed conjunct
  std::optional<vec::RowFilter> residual_;
  SchemaPtr pair_schema_;
  std::vector<std::string> left_columns_;
  std::vector<std::string> right_columns_;
};

}  // namespace ccsql::plan
