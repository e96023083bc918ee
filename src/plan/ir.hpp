#pragma once

// Logical-plan IR of the ccsql query planner (ccsql::plan).
//
// A SELECT is compiled into a tree of PlanNodes (scan / select / project /
// cross / union / distinct / sort / count), rewritten by the rule-based
// optimizer (optimizer.hpp), prepared (planner.hpp) and run by the
// executor (executor.hpp).  The paper offloads this to Oracle8's planner;
// here it is the layer that turns the naive "materialise the cross
// product, then filter" reading of an invariant query into pushed-down
// filters, indexed point lookups and joins: a Select over a Cross, routed
// on its equalities (route.hpp).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relational/expr.hpp"
#include "relational/parser.hpp"
#include "relational/schema.hpp"
#include "relational/table.hpp"

namespace ccsql::plan {

namespace vec {
class RowFilter;
}  // namespace vec
class CrossRoute;

/// "No limit" sentinel for row budgets.
inline constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);
/// actual_rows value of a node that has not been executed.
inline constexpr std::size_t kNotExecuted = static_cast<std::size_t>(-1);

struct PlanNode;
using PlanPtr = std::unique_ptr<PlanNode>;

/// Per-operator runtime profile, filled by the executor when
/// ExecContext::analyze is set (EXPLAIN ANALYZE).  wall_micros is inclusive
/// of children executed through exec(); exclusive (self) time is derived at
/// render time as inclusive minus the children's inclusive sums.  Fused
/// paths (select-over-scan, select-over-index-lookup, select-over-cross)
/// never run the child's exec(), so the fused work stays attributed to the
/// fusing operator and the child's wall time reads 0.
struct OpStats {
  std::uint64_t invocations = 0;   // exec() calls on this node
  std::uint64_t wall_micros = 0;   // inclusive wall time
  std::uint64_t rows_in = 0;       // input rows examined (filter/probe visits)
  std::uint64_t rows_out = 0;      // rows produced
  std::uint64_t batches = 0;       // vectorized batches evaluated
  std::uint64_t morsels = 0;       // parallel morsels dispatched
  std::uint64_t build_rows = 0;    // routed cross: right rows indexed
  std::uint64_t keys_indexed = 0;  // routed cross: distinct keys indexed
  std::uint64_t build_bytes = 0;   // routed cross: estimated build memory
  std::uint64_t bytes_touched = 0;  // column bytes read + written (columnar)

  [[nodiscard]] bool executed() const noexcept { return invocations > 0; }
};

/// One operator of a query plan.  A single tagged struct (rather than a
/// class hierarchy) keeps rewrites — which splice, replace and retype nodes
/// constantly — simple.
struct PlanNode {
  enum class Kind {
    kScan,         // every row of the `bound` table
    kIndexLookup,  // point lookup on a base table via its hash index
    kSelect,       // filter rows by predicate
    kProject,      // named columns, optionally distinct
    kDistinct,     // remove duplicate rows
    kCross,        // cartesian product of the two children
    kUnion,        // set union of children, aligned by column position
    kSort,         // ORDER BY
    kCount,        // COUNT(*) over the child
  };

  Kind kind = Kind::kScan;

  /// Output schema of this operator (scan schemas are alias-renamed).
  SchemaPtr schema;

  // -- kScan / kIndexLookup ---------------------------------------------------
  /// The table read: a catalog's, bound when the plan is built, or a
  /// free-standing one (the solver's steps).  table_name names a catalog's
  /// for EXPLAIN and is empty otherwise.
  std::string table_name;
  const Table* bound = nullptr;
  std::string alias;  // non-empty: columns read as "alias.name"

  // -- kSelect ----------------------------------------------------------------
  std::optional<Expr> predicate;
  /// `predicate` compiled by prepare() (planner.hpp): a Select over a
  /// Cross runs through `route` (route.hpp), any other through `compiled`.
  /// Immutable, and their evaluation is const and thread-safe, so sessions
  /// running one cached plan at once share them.
  std::shared_ptr<const vec::RowFilter> compiled;
  std::shared_ptr<const CrossRoute> route;

  // -- kCross -----------------------------------------------------------------
  /// The Select above routed this Cross's candidates through a keyed
  /// node; set by the executor, rendered `Cross [routed]`.
  bool routed = false;

  // -- kProject (projection list) / kIndexLookup (key columns) ---------------
  std::vector<std::string> columns;  // names in this node's schema
  bool distinct = false;             // kProject

  // -- kIndexLookup -----------------------------------------------------------
  std::vector<Value> key_values;  // parallel to `columns`
  /// Positions of `columns` in the base table, set by the optimizer, and
  /// the `bound` table's hash index on them, resolved by prepare().
  std::vector<std::size_t> key_columns;
  const HashIndex* index = nullptr;

  // -- kSort ------------------------------------------------------------------
  std::vector<std::string> order_by;

  std::vector<PlanPtr> children;

  /// Cardinality estimate (optimizer) and observed output rows (executor),
  /// rendered side by side by EXPLAIN.
  double est_rows = 0.0;
  std::size_t actual_rows = kNotExecuted;

  /// Runtime profile; populated only under EXPLAIN ANALYZE.
  OpStats stats;

  [[nodiscard]] PlanNode& child(std::size_t i = 0) { return *children[i]; }
  [[nodiscard]] const PlanNode& child(std::size_t i = 0) const {
    return *children[i];
  }

  [[nodiscard]] bool is_scan() const noexcept { return kind == Kind::kScan; }

  /// One-line operator description (no row counts), e.g.
  /// `Cross [routed]` or `IndexLookup D (dirst = "MESI")`.
  [[nodiscard]] std::string label() const;
};

[[nodiscard]] PlanPtr make_node(PlanNode::Kind kind);

/// Returns "Scan", "Cross", ... for tests and diagnostics.
[[nodiscard]] std::string_view to_string(PlanNode::Kind kind) noexcept;

/// The schema of a base table viewed through a FROM alias: every column
/// renamed to "alias.name" (kinds preserved).  The base schema when `alias`
/// is empty.
[[nodiscard]] SchemaPtr scan_schema(const Schema& base,
                                    const std::string& alias);

}  // namespace ccsql::plan
