// Robustness fuzzing of the lexer/parser: random token soup must never
// crash — every input either parses or throws ParseError — and every
// generated-valid expression round-trips through to_string/parse with
// identical semantics.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "relational/error.hpp"
#include "relational/expr.hpp"
#include "relational/parser.hpp"
#include "support/interpreted_expr.hpp"

namespace ccsql {
namespace {

const char* kFragments[] = {
    "select", "from",  "where",  "and",  "or",    "not",    "in",
    "(",      ")",     "[",      "]",    "=",     "!=",     "<>",
    "?",      ":",     ",",      "*",    "\"x\"", "inmsg",  "dirst",
    "true",   "false", "create", "table", "as",   "union",  "order",
    "by",     "count", "empty",  "a",    "Busy-rx-sd", "42", "drop",
    "insert", "into",  "values",
};

class ParserFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParserFuzz, RandomTokenSoupNeverCrashes) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::size_t> pick(
      0, std::size(kFragments) - 1);
  std::uniform_int_distribution<int> len(1, 24);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const int n = len(rng);
    for (int i = 0; i < n; ++i) {
      text += kFragments[pick(rng)];
      text += ' ';
    }
    // Any outcome but a crash / non-ParseError exception is acceptable.
    try {
      (void)parse_expr(text);
    } catch (const ParseError&) {
    }
    try {
      (void)parse_statement(text);
    } catch (const ParseError&) {
    }
    try {
      (void)parse_invariant(text);
    } catch (const ParseError&) {
    }
  }
}

TEST_P(ParserFuzz, RandomBytesNeverCrashTheLexer) {
  std::mt19937 rng(GetParam() + 99);
  std::uniform_int_distribution<int> byte(1, 126);
  std::uniform_int_distribution<int> len(0, 64);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const int n = len(rng);
    for (int i = 0; i < n; ++i) {
      text += static_cast<char>(byte(rng));
    }
    try {
      (void)parse_statement(text);
    } catch (const ParseError&) {
    }
  }
}

/// Generates a random well-formed expression and checks the
/// text -> Expr -> text fixpoint plus semantic equality on random rows.
Expr random_expr(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> pick(0, 6);
  std::uniform_int_distribution<int> vals(0, 3);
  auto col = [&] {
    return Atom::ident(std::string("c").append(std::to_string(vals(rng) % 2)));
  };
  auto val = [&] {
    return Atom::ident(std::string("v").append(std::to_string(vals(rng))));
  };
  if (depth <= 0) return Expr::compare(col(), rng() % 2 == 0, val());
  switch (pick(rng)) {
    case 0:
      return Expr::compare(col(), rng() % 2 == 0, val());
    case 1:
      return Expr::in(col(), rng() % 2 == 0, {val(), val(), val()});
    case 2:
      return Expr::conjunction(
          {random_expr(rng, depth - 1), random_expr(rng, depth - 1)});
    case 3:
      return Expr::disjunction(
          {random_expr(rng, depth - 1), random_expr(rng, depth - 1)});
    case 4:
      return Expr::negation(random_expr(rng, depth - 1));
    case 5:
      return Expr::ternary(random_expr(rng, depth - 1),
                           random_expr(rng, depth - 1),
                           random_expr(rng, depth - 1));
    default:
      return Expr::boolean(rng() % 2 == 0);
  }
}

TEST_P(ParserFuzz, GeneratedExpressionsRoundTripSemantically) {
  std::mt19937 rng(GetParam() + 1000);
  auto schema = Schema::of({"c0", "c1"});
  for (int trial = 0; trial < 100; ++trial) {
    Expr e = random_expr(rng, 3);
    const std::string text = e.to_string();
    Expr reparsed = parse_expr(text);
    EXPECT_EQ(reparsed.to_string(), text);
    CompiledExpr a = compile(e, *schema, *schema);
    CompiledExpr b = compile(reparsed, *schema, *schema);
    for (int r = 0; r < 16; ++r) {
      std::vector<Value> row{
          V(std::string("v").append(std::to_string(rng() % 4))),
          V(std::string("v").append(std::to_string(rng() % 4)))};
      EXPECT_EQ(a.eval(RowView(row)), b.eval(RowView(row))) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1u, 9u));

}  // namespace
}  // namespace ccsql
