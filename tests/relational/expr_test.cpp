#include "relational/expr.hpp"

#include <gtest/gtest.h>

#include "relational/error.hpp"
#include "relational/parser.hpp"
#include "support/interpreted_expr.hpp"
#include "support/naive_exec.hpp"

namespace ccsql {
namespace {

SchemaPtr schema() { return Schema::of({"inmsg", "dirst", "dirpv"}); }

std::vector<Value> row(const char* m, const char* st, const char* pv) {
  return {V(m), V(st), V(pv)};
}

bool eval(const std::string& text, const std::vector<Value>& r,
          const FunctionRegistry* fns = nullptr) {
  auto s = schema();
  CompiledExpr e = compile(parse_expr(text), *s, *s, fns);
  return e.eval(RowView(r));
}

TEST(Expr, EqualityOnColumnAndLiteral) {
  EXPECT_TRUE(eval("inmsg = \"readex\"", row("readex", "SI", "one")));
  EXPECT_FALSE(eval("inmsg = \"readex\"", row("wb", "SI", "one")));
  // Bare identifier literal (paper style: dirpv = zero).
  EXPECT_TRUE(eval("dirpv = zero", row("readex", "SI", "zero")));
}

TEST(Expr, ColumnToColumnComparison) {
  EXPECT_TRUE(eval("inmsg = dirst", {V("x"), V("x"), V("y")}));
  EXPECT_FALSE(eval("inmsg = dirst", {V("x"), V("y"), V("y")}));
}

TEST(Expr, Inequality) {
  EXPECT_TRUE(eval("dirst != \"I\"", row("m", "SI", "one")));
  EXPECT_FALSE(eval("dirst != \"I\"", row("m", "I", "one")));
  EXPECT_TRUE(eval("dirst <> \"I\"", row("m", "SI", "one")));
}

TEST(Expr, NullLiteralMatchesNullCell) {
  EXPECT_TRUE(eval("dirpv = NULL", {V("m"), V("I"), null_value()}));
  EXPECT_FALSE(eval("dirpv = NULL", row("m", "I", "one")));
  EXPECT_TRUE(eval("not dirpv = NULL", row("m", "I", "one")));
}

TEST(Expr, InSet) {
  EXPECT_TRUE(eval("dirst in (\"I\", \"SI\")", row("m", "SI", "x")));
  EXPECT_FALSE(eval("dirst in (\"I\", \"SI\")", row("m", "MESI", "x")));
  EXPECT_TRUE(eval("dirst not in (\"I\", \"SI\")", row("m", "MESI", "x")));
}

TEST(Expr, BooleanConnectives) {
  EXPECT_TRUE(
      eval("inmsg = readex and dirst = SI", row("readex", "SI", "x")));
  EXPECT_FALSE(
      eval("inmsg = readex and dirst = SI", row("readex", "I", "x")));
  EXPECT_TRUE(eval("inmsg = wb or dirst = SI", row("readex", "SI", "x")));
  EXPECT_TRUE(eval("not inmsg = wb", row("readex", "SI", "x")));
  EXPECT_TRUE(eval("true", row("a", "b", "c")));
  EXPECT_FALSE(eval("false", row("a", "b", "c")));
}

TEST(Expr, PrecedenceAndOverOr) {
  // a or b and c  ==  a or (b and c)
  EXPECT_TRUE(eval("inmsg = x or dirst = y and dirpv = z",
                   {V("x"), V("q"), V("q")}));
  EXPECT_FALSE(eval("inmsg = x or dirst = y and dirpv = z",
                    {V("q"), V("y"), V("q")}));
  EXPECT_TRUE(eval("inmsg = x or dirst = y and dirpv = z",
                   {V("q"), V("y"), V("z")}));
}

TEST(Expr, TernaryMatchesPaperSemantics) {
  // Paper: inmsg = "data" and dirst = "Busy-d" ? dirpv = zero : dirpv = one
  const std::string c =
      "inmsg = \"data\" and dirst = \"Busy-d\" ? dirpv = zero : dirpv = one";
  EXPECT_TRUE(eval(c, row("data", "Busy-d", "zero")));
  EXPECT_FALSE(eval(c, row("data", "Busy-d", "one")));
  EXPECT_TRUE(eval(c, row("data", "SI", "one")));
  EXPECT_FALSE(eval(c, row("data", "SI", "zero")));
}

TEST(Expr, NestedTernary) {
  const std::string c =
      "inmsg = a ? dirpv = p : (inmsg = b ? dirpv = q : dirpv = r)";
  EXPECT_TRUE(eval(c, {V("a"), V("x"), V("p")}));
  EXPECT_TRUE(eval(c, {V("b"), V("x"), V("q")}));
  EXPECT_TRUE(eval(c, {V("c"), V("x"), V("r")}));
  EXPECT_FALSE(eval(c, {V("c"), V("x"), V("q")}));
}

TEST(Expr, FunctionCall) {
  FunctionRegistry fns;
  fns.add_unary("isrequest", [](Value v) {
    return v == V("readex") || v == V("wb");
  });
  EXPECT_TRUE(eval("isrequest(inmsg)", row("readex", "I", "x"), &fns));
  EXPECT_FALSE(eval("isrequest(inmsg)", row("data", "I", "x"), &fns));
  EXPECT_TRUE(eval("not isrequest(inmsg)", row("data", "I", "x"), &fns));
}

TEST(Expr, UnknownFunctionThrows) {
  auto s = schema();
  EXPECT_THROW(compile(parse_expr("mystery(inmsg)"), *s, *s, nullptr),
               BindError);
  FunctionRegistry fns;
  EXPECT_THROW(compile(parse_expr("mystery(inmsg)"), *s, *s, &fns), BindError);
}

TEST(Expr, ReferencedColumns) {
  auto s = schema();
  Expr e = parse_expr("inmsg = readex and dirst = SI ? dirpv = one : true");
  auto cols = e.referenced_columns(*s);
  EXPECT_EQ(cols, (std::vector<std::string>{"inmsg", "dirst", "dirpv"}));
  // Literals that are not column names are not reported.
  Expr e2 = parse_expr("inmsg = readex");
  EXPECT_EQ(e2.referenced_columns(*s), std::vector<std::string>{"inmsg"});
}

TEST(Expr, CompileAgainstSubSchemaUsesFullSchemaForColumnness) {
  auto full = schema();
  auto sub = Schema::of({"inmsg"});
  // dirst is a column of the full schema but absent from the row schema:
  // compiling an expression that touches it must fail.
  EXPECT_THROW(compile(parse_expr("dirst = SI"), *sub, *full, nullptr),
               BindError);
  // inmsg alone is fine.
  CompiledExpr ok = compile(parse_expr("inmsg = readex"), *sub, *full);
  std::vector<Value> r{V("readex")};
  EXPECT_TRUE(ok.eval(RowView(r)));
}

TEST(Expr, ToStringRoundTripsThroughParser) {
  const char* texts[] = {
      "inmsg = \"readex\"",
      "(inmsg = a and dirst = b)",
      "dirst in (I, SI, MESI)",
      "(inmsg = a ? dirst = b : dirst = c)",
      "not inmsg = wb",
  };
  auto s = schema();
  for (const char* t : texts) {
    Expr e = parse_expr(t);
    Expr e2 = parse_expr(e.to_string());
    EXPECT_EQ(e.to_string(), e2.to_string()) << t;
    // Both must compile identically (smoke: evaluate on a row).
    std::vector<Value> r{V("a"), V("SI"), V("c")};
    EXPECT_EQ(compile(e, *s, *s).eval(RowView(r)),
              compile(e2, *s, *s).eval(RowView(r)))
        << t;
  }
}

TEST(Expr, PredicateAdapterWorksWithSelect) {
  Table t(schema());
  t.append({V("readex"), V("SI"), V("one")});
  t.append({V("wb"), V("MESI"), V("one")});
  auto s = schema();
  CompiledExpr e = compile(parse_expr("dirst = SI"), *s, *s);
  Table sel = naive::select(t, e.predicate());
  EXPECT_EQ(sel.row_count(), 1u);
  EXPECT_EQ(sel.at(0, 0), V("readex"));
}

}  // namespace
}  // namespace ccsql
