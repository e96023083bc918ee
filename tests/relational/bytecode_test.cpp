#include "relational/bytecode.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "relational/error.hpp"
#include "relational/expr.hpp"
#include "relational/parser.hpp"
#include "relational/table.hpp"
#include "support/interpreted_expr.hpp"

namespace ccsql {
namespace {

SchemaPtr schema() { return Schema::of({"inmsg", "dirst", "dirpv"}); }

std::vector<Value> row(const char* m, const char* st, const char* pv) {
  return {V(m), V(st), V(pv)};
}

/// eval_batch over the one-row selection {0} of a table holding only `r`.
bool passes(const bc::Program& prog, const std::vector<Value>& r) {
  std::vector<const Value*> cols;
  for (const Value& v : r) cols.push_back(&v);
  const bc::Sel sel = {0};
  bc::Sel out;
  bc::Scratch scratch;
  prog.eval_batch(cols, sel, out, scratch);
  return !out.empty();
}

// Compiles `text` both ways and checks the bytecode engine, run over a
// one-row selection, agrees with the interpreter on `r` (and that both
// yield `expected`).
void expect_both(const std::string& text, const std::vector<Value>& r,
                 bool expected, const FunctionRegistry* fns = nullptr) {
  auto s = schema();
  const Expr ast = parse_expr(text);
  CompiledExpr interp = compile(ast, *s, *s, fns);
  bc::Program prog = compile_bytecode(ast, *s, *s, fns);
  ASSERT_TRUE(static_cast<bool>(prog)) << text;
  EXPECT_EQ(interp.eval(RowView(r)), expected) << text;
  EXPECT_EQ(passes(prog, r), expected) << text;
}

TEST(Bytecode, BoolConstant) {
  expect_both("true", row("a", "b", "c"), true);
  expect_both("false", row("a", "b", "c"), false);
  expect_both("not true", row("a", "b", "c"), false);
}

TEST(Bytecode, CompareColumnToLiteral) {
  expect_both("inmsg = \"readex\"", row("readex", "SI", "one"), true);
  expect_both("inmsg = \"readex\"", row("wb", "SI", "one"), false);
  // Bare identifier literal (paper style).
  expect_both("dirpv = zero", row("readex", "SI", "zero"), true);
}

TEST(Bytecode, CompareColumnToColumn) {
  expect_both("inmsg = dirst", {V("x"), V("x"), V("y")}, true);
  expect_both("inmsg = dirst", {V("x"), V("y"), V("y")}, false);
}

TEST(Bytecode, CompareLiteralToLiteral) {
  expect_both("\"a\" = \"a\"", row("m", "s", "p"), true);
  expect_both("\"a\" = \"b\"", row("m", "s", "p"), false);
}

TEST(Bytecode, NegatedCompare) {
  expect_both("dirst != \"I\"", row("m", "SI", "one"), true);
  expect_both("dirst != \"I\"", row("m", "I", "one"), false);
}

TEST(Bytecode, NullIsAnOrdinaryValue) {
  expect_both("dirpv = NULL", {V("m"), V("I"), null_value()}, true);
  expect_both("dirpv = NULL", row("m", "I", "one"), false);
  expect_both("not dirpv = NULL", row("m", "I", "one"), true);
}

TEST(Bytecode, InSet) {
  expect_both("dirst in (\"I\", \"SI\")", row("m", "SI", "x"), true);
  expect_both("dirst in (\"I\", \"SI\")", row("m", "MESI", "x"), false);
  expect_both("dirst not in (\"I\", \"SI\")", row("m", "MESI", "x"), true);
  // Column members of the set.
  expect_both("dirpv in (inmsg, dirst)", {V("a"), V("b"), V("b")}, true);
  expect_both("dirpv in (inmsg, dirst)", {V("a"), V("b"), V("c")}, false);
}

TEST(Bytecode, Connectives) {
  expect_both("inmsg = readex and dirst = SI", row("readex", "SI", "x"), true);
  expect_both("inmsg = readex and dirst = SI", row("readex", "I", "x"), false);
  expect_both("inmsg = wb or dirst = SI", row("readex", "SI", "x"), true);
  expect_both("inmsg = wb or dirst = SI", row("readex", "I", "x"), false);
  expect_both("not inmsg = wb", row("readex", "SI", "x"), true);
}

TEST(Bytecode, EmptyConnectives) {
  // Vacuous conjunction is true, vacuous disjunction is false — same as the
  // interpreter's AndNode/OrNode defaults.
  auto s = schema();
  const std::vector<Value> r = row("a", "b", "c");
  bc::Program and0 = compile_bytecode(Expr::conjunction({}), *s, *s);
  bc::Program or0 = compile_bytecode(Expr::disjunction({}), *s, *s);
  EXPECT_TRUE(passes(and0, r));
  EXPECT_FALSE(passes(or0, r));
  EXPECT_EQ(compile(Expr::conjunction({}), *s, *s).eval(RowView(r)), true);
  EXPECT_EQ(compile(Expr::disjunction({}), *s, *s).eval(RowView(r)), false);
}

TEST(Bytecode, Ternary) {
  const std::string c =
      "inmsg = \"data\" and dirst = \"Busy-d\" ? dirpv = zero : dirpv = one";
  expect_both(c, row("data", "Busy-d", "zero"), true);
  expect_both(c, row("data", "Busy-d", "one"), false);
  expect_both(c, row("data", "SI", "one"), true);
  expect_both(c, row("data", "SI", "zero"), false);
}

TEST(Bytecode, NestedTernary) {
  const std::string c =
      "inmsg = a ? dirpv = p : (inmsg = b ? dirpv = q : dirpv = r)";
  expect_both(c, {V("a"), V("x"), V("p")}, true);
  expect_both(c, {V("b"), V("x"), V("q")}, true);
  expect_both(c, {V("c"), V("x"), V("r")}, true);
  expect_both(c, {V("c"), V("x"), V("q")}, false);
}

TEST(Bytecode, FunctionCall) {
  FunctionRegistry fns;
  fns.add_unary("isrequest", [](Value v) {
    return v == V("readex") || v == V("wb");
  });
  expect_both("isrequest(inmsg)", row("readex", "I", "x"), true, &fns);
  expect_both("isrequest(inmsg)", row("data", "I", "x"), false, &fns);
  expect_both("not isrequest(inmsg)", row("data", "I", "x"), true, &fns);
}

TEST(Bytecode, UnknownFunctionThrows) {
  auto s = schema();
  EXPECT_THROW(compile_bytecode(parse_expr("mystery(inmsg)"), *s, *s, nullptr),
               BindError);
  FunctionRegistry fns;
  EXPECT_THROW(compile_bytecode(parse_expr("mystery(inmsg)"), *s, *s, &fns),
               BindError);
}

TEST(Bytecode, UnknownColumnThrows) {
  auto s = schema();
  auto narrow = Schema::of({"inmsg"});
  // `dirst` is a column of the full schema but missing from the row schema.
  EXPECT_THROW(compile_bytecode(parse_expr("dirst = \"I\""), *narrow, *s),
               BindError);
}

// Batch evaluation must select exactly the rows the interpreter selects,
// in table order, including selection-refining paths (and/or/ternary).
TEST(Bytecode, BatchMatchesScalar) {
  auto s = schema();
  Table t(s);
  const char* msgs[] = {"readex", "wb", "data", "ack"};
  const char* states[] = {"I", "SI", "MESI", "Busy-d"};
  const char* pvs[] = {"zero", "one"};
  for (int i = 0; i < 257; ++i) {
    t.append({V(msgs[i % 4]), V(states[(i / 4) % 4]), V(pvs[i % 2])});
  }
  const std::vector<std::string> cases = {
      "true",
      "false",
      "inmsg = \"readex\"",
      "dirst != \"I\"",
      "inmsg = readex and dirst = SI",
      "inmsg = wb or dirst = MESI or dirpv = zero",
      "not (inmsg = data and dirpv = one)",
      "dirst in (\"I\", \"Busy-d\")",
      "inmsg = \"data\" and dirst = \"Busy-d\" ? dirpv = zero : dirpv = one",
      // Ternaries whose condition accepts nothing / everything: one branch
      // receives an empty selection (regression: cmp_batch's dense-batch
      // detection must not touch front()/back() of an empty selection).
      "false ? dirpv = zero : dirpv = one",
      "true ? dirpv = zero : dirpv = one",
      "inmsg = \"nomatch\" ? dirpv = zero : dirpv = one",
  };
  bc::Scratch scratch;
  for (const auto& text : cases) {
    const Expr ast = parse_expr(text);
    bc::Program prog = compile_bytecode(ast, *s, *s);
    CompiledExpr interp = compile(ast, *s, *s);

    bc::Sel sel(t.row_count());
    std::iota(sel.begin(), sel.end(), 0u);
    bc::Sel hits;
    const std::vector<const Value*> cols = t.column_ptrs();
    prog.eval_batch(cols, sel, hits, scratch);

    bc::Sel expected;
    for (std::uint32_t i = 0; i < t.row_count(); ++i) {
      if (interp.eval(t.row(i))) expected.push_back(i);
    }
    EXPECT_EQ(hits, expected) << text;

    // The dense-range entry point must agree.
    bc::Sel range_hits;
    prog.eval_range(cols, 0, static_cast<std::uint32_t>(t.row_count()),
                    range_hits, scratch);
    EXPECT_EQ(range_hits, expected) << text << " (range)";
  }
}

// eval_batch refines whatever selection it is handed, not just full tables.
TEST(Bytecode, BatchRespectsInputSelection) {
  auto s = schema();
  Table t(s);
  for (int i = 0; i < 100; ++i) {
    t.append({V(i % 2 ? "readex" : "wb"), V("I"), V("zero")});
  }
  bc::Program prog = compile_bytecode(parse_expr("inmsg = \"readex\""), *s, *s);
  bc::Scratch scratch;
  bc::Sel sel = {1, 2, 3, 50, 98, 99};
  bc::Sel hits;
  prog.eval_batch(t.column_ptrs(), sel, hits, scratch);
  EXPECT_EQ(hits, (bc::Sel{1, 3, 99}));
}

}  // namespace
}  // namespace ccsql
