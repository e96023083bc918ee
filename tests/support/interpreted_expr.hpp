#pragma once

// The interpreted predicate walk, one row at a time: the differential oracle
// for the bytecode engine (relational/bytecode.hpp), and the filter of the
// naive executor and the monolithic solver.

#include <functional>
#include <memory>

#include "relational/expr.hpp"
#include "relational/function_registry.hpp"
#include "relational/table.hpp"

namespace ccsql {

/// A compiled predicate: `Expr` resolved against a row schema, ready to
/// evaluate against rows at full speed (no name lookups).
class CompiledExpr {
 public:
  CompiledExpr() = default;

  [[nodiscard]] bool eval(RowView row) const;
  [[nodiscard]] explicit operator bool() const { return root_ != nullptr; }

  /// Adapts to the Table::select callback shape.
  [[nodiscard]] std::function<bool(RowView)> predicate() const;

  struct Node;

 private:
  friend CompiledExpr compile(const Expr&, const Schema&, const Schema&,
                              const FunctionRegistry*);
  std::shared_ptr<const Node> root_;
};

/// Resolves `expr` for evaluation against rows of `row_schema`.
///
/// `full_schema` decides identifier-hood: a bare identifier denotes a column
/// iff `full_schema` has a column of that name (it must then also exist in
/// `row_schema`, else BindError).  Pass the same schema twice in the common
/// case.  `functions` may be null if the expression calls no predicates.
CompiledExpr compile(const Expr& expr, const Schema& row_schema,
                     const Schema& full_schema,
                     const FunctionRegistry* functions = nullptr);

inline CompiledExpr compile(const Expr& expr, const Schema& schema,
                            const FunctionRegistry* functions = nullptr) {
  return compile(expr, schema, schema, functions);
}

}  // namespace ccsql
