#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "relational/expr.hpp"

namespace ccsql {

/// One entry of a FROM list: a table name with an optional alias.  When an
/// alias is given every column of the table is visible as `alias.column`
/// (the paper's pairwise dependency joins use this to join a table with a
/// copy of itself); without an alias columns keep their bare names.
struct TableRef {
  std::string table;
  std::string alias;  // empty = no alias

  friend bool operator==(const TableRef&, const TableRef&) = default;
};

/// A parsed SELECT:
///
///   SELECT [DISTINCT] cols | * | COUNT(*)
///     FROM table [alias] (, table [alias])* [WHERE expr] [ORDER BY cols]
///     [UNION select ...]
///
/// A multi-table FROM denotes the cross product of its entries in order
/// (the planner routes cross + equality predicates as joins).  UNION
/// branches are chained through `union_with` (set semantics, as in the
/// paper's "union of all the pairwise dependency tables").
struct SelectStmt {
  bool distinct = false;
  bool star = false;
  bool count_star = false;           // SELECT COUNT(*) ...
  std::vector<std::string> columns;  // empty iff star / count_star
  std::vector<TableRef> from;        // at least one entry once parsed
  std::optional<Expr> where;
  std::vector<std::string> order_by;
  std::vector<SelectStmt> union_with;

  [[nodiscard]] std::string to_string() const;
};

/// A parsed top-level statement: a query or one of the DDL/DML forms the
/// paper's flow uses (`Create Table Request_remmsg as Select distinct ...`).
struct Statement {
  enum class Kind { kSelect, kCreateTableAs, kDropTable, kInsert };
  Kind kind = Kind::kSelect;
  SelectStmt select;                // kSelect / kCreateTableAs
  std::string table;                // target of create/drop/insert
  std::vector<std::vector<std::string>> rows;  // kInsert VALUES tuples
};

/// Parses a full statement (SELECT / CREATE TABLE ... AS SELECT /
/// DROP TABLE / INSERT INTO ... VALUES).
Statement parse_statement(std::string_view text);

/// Parses a constraint-language boolean expression (see Expr for grammar).
/// Throws ParseError on malformed input or trailing tokens.
Expr parse_expr(std::string_view text);

/// Parses a single SELECT statement.
SelectStmt parse_select(std::string_view text);

/// Parses the paper's invariant form: one or more bracketed emptiness
/// checks joined by `and`:
///
///   [Select cols from T where e] = empty
///       and [Select ... ] = empty ...
///
/// A bare SELECT (no brackets / "= empty") is also accepted and treated as a
/// single emptiness check.  Returns the SELECTs whose results must all be
/// empty for the invariant to hold.
std::vector<SelectStmt> parse_invariant(std::string_view text);

}  // namespace ccsql
