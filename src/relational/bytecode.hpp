#pragma once

// Compiled predicate bytecode: the only predicate engine in src/, behind
// every planned filter (planner selects, hash-join residuals via selects,
// fused counts, index-bucket filters, serve emptiness probes, solver steps).
//
// A resolved Expr is flattened into a postfix program over interned symbol
// ids and evaluated over a *selection vector* of ~1024 row indices at a
// time (Program::eval_batch), refining the selection operator by operator —
// AND evaluates its second conjunct only over rows the first accepted, OR
// evaluates later disjuncts only over rows still rejected, the ternary
// splits the selection on its condition.  Leaf comparisons run as tight
// loops over column data with no virtual dispatch; a dense selection (a
// contiguous run of row ids) takes a stride-1 loop with no gather.
//
// Batch evaluation reads columnar storage directly: the caller passes one
// base pointer per schema column (Table::column_ptrs) and the leaf loops
// index column[row] — exactly the columns the predicate names, never whole
// rows.
//
// NULL is symbol id 0 and compares as an ordinary value, and selection
// order is table order, so results are byte-identical to a row-at-a-time
// walk of the Expr tree, which tests/support keeps as the differential
// oracle.

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "relational/expr.hpp"
#include "relational/function_registry.hpp"
#include "relational/schema.hpp"
#include "relational/value.hpp"

namespace ccsql {

namespace bc {
class Program;
}

/// Compiles `expr` to bytecode, resolved against `row_schema` with
/// identifier-hood decided by `full_schema` (see Atom in relational/expr.hpp;
/// BindError on unknown columns or functions).
bc::Program compile_bytecode(const Expr& expr, const Schema& row_schema,
                             const Schema& full_schema,
                             const FunctionRegistry* functions = nullptr);

namespace bc {

/// Row indices into a table, ascending.  u32 suffices: a row needs at least
/// one 4-byte cell, so a table cannot hold 2^32 rows.
using Sel = std::vector<std::uint32_t>;

enum class Op : std::uint8_t {
  kConst,    // push the immediate boolean
  kCmp,      // push (operand(a) == operand(b)) != negated
  kIn,       // push (operand(a) in operands[args..args+argc)) != negated
  kCall,     // push fn(operands[args..args+argc))
  kAnd,      // all children true (children at roots[args..args+argc))
  kOr,       // any child true
  kNot,      // single child false
  kTernary,  // children cond, then, else
};

/// A resolved operand: a column index into the row, or a constant symbol.
struct Operand {
  bool is_column = false;
  std::uint32_t column = 0;
  Value value;

  /// Batch access: cell `i` of the column-pointer array.
  [[nodiscard]] Value get_at(const Value* const* cols,
                             std::uint32_t i) const noexcept {
    return is_column ? cols[column][i] : value;
  }
};

/// One instruction.  Composite ops locate their operand subtrees through
/// the program's child-root pool, so the flat postfix form still supports
/// the structured (short-circuiting, selection-refining) evaluation order.
struct Insn {
  Op op = Op::kConst;
  bool negated = false;  // kCmp / kIn
  bool imm = false;      // kConst payload
  std::uint32_t a = 0;   // operand-pool index: lhs of kCmp / kIn
  std::uint32_t b = 0;   // operand-pool index: rhs of kCmp
  std::uint32_t argc = 0;  // operand count (kIn/kCall) or child count
  std::uint32_t args = 0;  // pool offset: operands_ (kIn/kCall), roots_ (else)
  const FunctionRegistry::Predicate* fn = nullptr;  // kCall
};

/// Reusable selection buffers for eval_batch.  Acquire/release is LIFO per
/// recursion depth, so one thread-local Scratch serves nested evaluations.
/// The pool is a deque: growing it must not invalidate buffers handed out
/// to enclosing recursion levels.
class Scratch {
 public:
  [[nodiscard]] Sel& acquire() {
    if (used_ == pool_.size()) pool_.emplace_back();
    Sel& s = pool_[used_++];
    s.clear();
    return s;
  }
  void release(std::size_t n = 1) { used_ -= n; }

 private:
  std::deque<Sel> pool_;
  std::size_t used_ = 0;
};

class Program {
 public:
  Program() = default;

  /// False for a default-constructed (uncompiled) program.
  [[nodiscard]] explicit operator bool() const noexcept {
    return !insns_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept { return insns_.size(); }
  [[nodiscard]] const std::vector<Insn>& insns() const noexcept {
    return insns_;
  }

  /// Batch evaluation: appends to `out` the members of `sel` (ascending row
  /// indices into the columnar table whose per-column base pointers are
  /// `cols`, one per schema column in order — Table::column_ptrs) that
  /// satisfy the program, preserving order.  `out` is cleared first.
  void eval_batch(std::span<const Value* const> cols,
                  std::span<const std::uint32_t> sel, Sel& out,
                  Scratch& scratch) const;

  /// eval_batch over rows [begin, end): seeds a dense selection from
  /// `scratch` and refines it.  The executor's scan entry point — morsels
  /// are dense by construction, and the leaves run stride-1 on them.
  void eval_range(std::span<const Value* const> cols, std::uint32_t begin,
                  std::uint32_t end, Sel& out, Scratch& scratch) const;

  /// Number of distinct table columns the program reads — the basis of
  /// EXPLAIN ANALYZE's bytes-touched estimate (columns_read * 4 bytes per
  /// row visited, since cells are interned u32 symbol ids).
  [[nodiscard]] std::size_t columns_read() const;

 private:
  friend Program (::ccsql::compile_bytecode)(const Expr&, const Schema&,
                                             const Schema&,
                                             const FunctionRegistry*);
  struct NodeEval;

  std::vector<Insn> insns_;
  std::vector<Operand> operands_;
  // Child root instruction indices of composite ops, in source order.
  std::vector<std::uint32_t> roots_;
};

}  // namespace bc

inline bc::Program compile_bytecode(const Expr& expr, const Schema& schema,
                                    const FunctionRegistry* functions = nullptr) {
  return compile_bytecode(expr, schema, schema, functions);
}

}  // namespace ccsql
