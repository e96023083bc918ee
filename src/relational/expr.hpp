#pragma once

#include <string>
#include <vector>

#include "relational/schema.hpp"
#include "relational/value.hpp"

namespace ccsql {

/// An operand of a comparison / IN / function call before name resolution.
/// Bare identifiers are resolved against a schema at compile time: if the
/// identifier names a column of the *full* table schema it denotes that
/// column, otherwise it denotes the value literal with that spelling
/// (the paper writes both `dirst = "MESI"` and `dirpv = zero`).
/// Quoted strings always denote value literals.  Parameter atoms (`$1`,
/// `$2`, ...) are placeholders for prepared statements: bind_params
/// substitutes a quoted literal per slot before planning; compiling an
/// expression that still contains one is a BindError.
struct Atom {
  enum class Kind { kIdent, kQuoted, kParam };
  Kind kind = Kind::kIdent;
  std::string text;  // for kParam: the decimal slot number (1-based)

  static Atom ident(std::string t) { return {Kind::kIdent, std::move(t)}; }
  static Atom quoted(std::string t) { return {Kind::kQuoted, std::move(t)}; }
  static Atom param(std::size_t slot) {
    return {Kind::kParam, std::to_string(slot)};
  }

  /// The 1-based slot of a kParam atom.
  [[nodiscard]] std::size_t param_slot() const;

  friend bool operator==(const Atom&, const Atom&) = default;
};

/// Unresolved boolean expression AST for the paper's constraint language:
///
///   expr     := or ( '?' expr ':' expr )?          -- ternary (right-assoc)
///   or       := and ( 'or' and )*
///   and      := unary ( 'and' unary )*
///   unary    := 'not' unary | primary
///   primary  := '(' expr ')' | comparison | call | 'true' | 'false'
///   comparison := atom ('='|'!='|'<>') atom
///               | atom ('in'|'not in') '(' atom (',' atom)* ')'
///   call     := name '(' atom (',' atom)* ')'
///
/// The ternary `c ? t : f` is boolean-valued and equivalent to
/// (c and t) or (not c and f), matching the paper's column constraints.
class Expr {
 public:
  enum class Op {
    kBool,     // constant
    kCompare,  // lhs = rhs / lhs != rhs
    kIn,       // lhs in {set} / not in
    kAnd,
    kOr,
    kNot,
    kTernary,  // children: cond, then, else
    kCall,     // named predicate over atoms
  };

  Expr() : op_(Op::kBool), bool_value_(true) {}

  static Expr boolean(bool v);
  static Expr compare(Atom lhs, bool negated, Atom rhs);
  static Expr in(Atom lhs, bool negated, std::vector<Atom> set);
  static Expr conjunction(std::vector<Expr> children);
  static Expr disjunction(std::vector<Expr> children);
  static Expr negation(Expr child);
  static Expr ternary(Expr cond, Expr then_e, Expr else_e);
  static Expr call(std::string name, std::vector<Atom> args);

  [[nodiscard]] Op op() const noexcept { return op_; }
  [[nodiscard]] bool bool_value() const noexcept { return bool_value_; }
  [[nodiscard]] bool negated() const noexcept { return negated_; }
  [[nodiscard]] const Atom& lhs() const { return atoms_.front(); }
  [[nodiscard]] const std::vector<Atom>& atoms() const { return atoms_; }
  [[nodiscard]] const std::vector<Expr>& children() const { return children_; }
  [[nodiscard]] const std::string& callee() const { return callee_; }

  /// Column names (relative to `full` schema) this expression mentions.
  [[nodiscard]] std::vector<std::string> referenced_columns(
      const Schema& full) const;

  /// Renders the expression back to constraint-language text.
  [[nodiscard]] std::string to_string() const;

  /// Highest parameter slot ($N) referenced anywhere in the expression;
  /// 0 when the expression is parameter-free.
  [[nodiscard]] std::size_t param_count() const;

  /// A copy with every $i replaced by values[i-1] as a quoted literal.
  /// Throws BindError when a referenced slot has no value.
  [[nodiscard]] Expr bind_params(const std::vector<std::string>& values) const;

 private:
  Op op_;
  bool bool_value_ = false;
  bool negated_ = false;            // for kCompare / kIn
  std::vector<Atom> atoms_;         // operands for kCompare/kIn/kCall
  std::vector<Expr> children_;      // for kAnd/kOr/kNot/kTernary
  std::string callee_;              // for kCall
};

}  // namespace ccsql
