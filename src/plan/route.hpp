#pragma once

// Routing for a Select over a Cross (DESIGN.md section 16): the one
// executor path for every join.
//
// Almost every column constraint is a guarded assignment,
// `c1 ? x = v1 : (c2 ? x = v2 : ...)`, and almost every join condition a
// set of equalities `r = a`.  Filtering the product evaluates either once
// per product row: once per left row for every right row.  A CrossRoute
// routes before it crosses:
//
//   1. the predicate's top-level plain equalities `r = a` (each `a` a
//      literal or a left column) merge into one keyed node, probed with
//      one key tuple per left row; the other routed conjuncts are guard
//      trees with a keyed leaf — ternaries whose conditions read only left
//      columns, over leaves;
//   2. the trees' conditions are evaluated once per left row, refining the
//      selection over the left table, so each left row lands in one leaf
//      of each tree;
//   3. each such leaf picks right-side rows, and the row's candidates are
//      what all its leaves pick:
//        keyed      `r = a`, `r in (a, ...)` or the merged equalities: the
//                   rows of the right table's cached HashIndex on the
//                   right columns that hold one of the key tuples, each
//                   once;
//        left-only  every right row or none;
//        any other  every right row, and the leaf stays in the residual;
//   4. the residual — the other conjuncts, plus each routed conjunct with
//      its exact (keyed and left-only) leaves replaced by `true` — runs
//      over the candidate pairs only.
//
// Candidates come in product order (left row ascending, then right row
// ascending), so the output is row for row what filtering the full product
// gives, and a range of left rows can be routed on its own: ranges
// concatenate in order.  A predicate with no keyed leaf pairs every left
// row with every right row: the full product is the degenerate route, not
// a second path.

#include <cstdint>
#include <optional>
#include <span>
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

  /// True when a conjunct routes through a keyed node (EXPLAIN marks the
  /// Cross `[routed]`); false for the degenerate route.
  [[nodiscard]] bool keyed() const noexcept { return !roots_.empty(); }

  /// One execution's right table, as the keyed nodes probe it: the index
  /// on each column set they key on (built on first use and cached on the
  /// table, counted as plan.index_builds or plan.index_hits) and the rows
  /// of each node whose keys are all literals, resolved once.  Read-only
  /// once built, so parallel candidates() calls share one.
  struct Right {
    std::size_t rows = 0;
    std::vector<const HashIndex*> index;        // per column set
    std::vector<std::optional<bc::Sel>> fixed;  // per node
  };
  [[nodiscard]] Right right_side(const Table& r) const;

  /// Appends the candidate pairs of left rows [begin, end) of `l` — a
  /// table over the left schema the route was built for — with the rows of
  /// `right` to `lsel`/`rsel` in product order, stopping once `limit`
  /// pairs are out.
  void candidates(const Table& l, const Right& right, std::size_t begin,
                  std::size_t end, std::size_t limit, bc::Sel& lsel,
                  bc::Sel& rsel) const;

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
      kKeyed,  // right rows whose key columns hold one of the key tuples
    };
    Kind kind = Kind::kAll;
    vec::RowFilter cond;
    std::uint32_t then_node = 0;
    std::uint32_t else_node = 0;
    /// The right columns probed: an index into column_sets_.
    std::uint32_t columns = 0;
    std::uint32_t tuples = 0;  // key tuples in `keys`
    /// Key tuples of one operand (a literal or a left column) per probed
    /// column, end to end: an `in` list holds one per atom.  Within a
    /// tuple the left columns come first, then the literal tail.
    std::vector<bc::Operand> keys;
  };
  /// Probe keys of one width, end to end: key q's cells are
  /// cells[q * width ...], its KeyHash hashes[q].
  struct Keys {
    std::size_t width = 0;
    std::vector<Value> cells;
    std::vector<std::uint64_t> hashes;

    [[nodiscard]] std::span<const Value> key(std::size_t q) const noexcept {
      return {cells.data() + q * width, width};
    }
  };
  struct Builder;

  /// Sends each of `rows` (ascending left row ids) down the tree from
  /// `node`, recording the leaf it reaches in leaf_of[row - base].
  void split(std::uint32_t node, vec::Columns cols,
             std::span<const std::uint32_t> rows, std::uint32_t* leaf_of,
             std::size_t base, bc::Scratch& scratch) const;

  /// The right rows holding one of `leaf`'s key tuples, ascending, each
  /// once: the index's own row list for a single tuple, else merged into
  /// `scratch`.  Tuple k is key first + k * stride of `keys`.
  [[nodiscard]] std::span<const std::uint32_t> pick(
      const Node& leaf, const HashIndex& index, const Keys& keys,
      std::size_t first, std::size_t stride, bc::Sel& scratch) const;
  /// `leaf`'s key tuples at left row i of `cols` (nullptr when every key
  /// is a literal) into `out`.
  void keys_at(const Node& leaf, const Value* const* cols, std::uint32_t i,
               Keys& out) const;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> roots_;  // one tree per routed conjunct
  /// The distinct right-column sets keyed nodes probe: one index each.
  std::vector<std::vector<std::size_t>> column_sets_;
  std::optional<vec::RowFilter> residual_;
  SchemaPtr pair_schema_;
  std::vector<std::string> left_columns_;
  std::vector<std::string> right_columns_;
};

}  // namespace ccsql::plan
