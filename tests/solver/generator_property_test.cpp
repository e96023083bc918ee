// Differential property test: on randomly generated schemas/domains and
// random column constraints, incremental generation must produce exactly the
// same table as monolithic conjunction solving.  This is the correctness
// argument for using the fast path everywhere.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "solver/generator.hpp"
#include "support/interpreted_expr.hpp"
#include "support/naive_solver.hpp"

namespace ccsql {
namespace {

class GeneratorEquivalence : public ::testing::TestWithParam<unsigned> {};

/// Builds a random expression over `cols`, each column having values
/// v0..v{alpha-1}.  Depth-bounded to keep evaluation cheap.
Expr random_expr(std::mt19937& rng, const std::vector<std::string>& cols,
                 int alpha, int depth) {
  std::uniform_int_distribution<int> pick(0, 5);
  std::uniform_int_distribution<int> col(0, static_cast<int>(cols.size()) - 1);
  std::uniform_int_distribution<int> val(0, alpha - 1);
  auto atom_col = [&] { return Atom::ident(cols[col(rng)]); };
  auto atom_val = [&] {
    return Atom::ident(std::string("v").append(std::to_string(val(rng))));
  };
  if (depth <= 0) {
    return Expr::compare(atom_col(), rng() % 2 == 0, atom_val());
  }
  switch (pick(rng)) {
    case 0:
      return Expr::compare(atom_col(), rng() % 2 == 0, atom_val());
    case 1:
      return Expr::compare(atom_col(), rng() % 2 == 0, atom_col());
    case 2: {
      std::vector<Atom> set{atom_val(), atom_val()};
      return Expr::in(atom_col(), rng() % 2 == 0, std::move(set));
    }
    case 3:
      return Expr::conjunction({random_expr(rng, cols, alpha, depth - 1),
                                random_expr(rng, cols, alpha, depth - 1)});
    case 4:
      return Expr::disjunction({random_expr(rng, cols, alpha, depth - 1),
                                random_expr(rng, cols, alpha, depth - 1)});
    default:
      return Expr::ternary(random_expr(rng, cols, alpha, depth - 1),
                           random_expr(rng, cols, alpha, depth - 1),
                           random_expr(rng, cols, alpha, depth - 1));
  }
}

TEST_P(GeneratorEquivalence, IncrementalEqualsMonolithic) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> ncols_d(2, 5);
  std::uniform_int_distribution<int> alpha_d(2, 4);
  const int ncols = ncols_d(rng);
  const int alpha = alpha_d(rng);

  GenerationInput in;
  std::vector<std::string> names;
  std::vector<Column> cols;
  for (int i = 0; i < ncols; ++i) {
    names.push_back(std::string("c").append(std::to_string(i)));
    cols.push_back({names.back(), i < ncols / 2 ? ColumnKind::kInput
                                                : ColumnKind::kOutput});
    std::vector<std::string> vals;
    for (int v = 0; v < alpha; ++v) {
      vals.push_back(std::string("v").append(std::to_string(v)));
    }
    in.domains.emplace_back(names.back(), vals);
  }
  in.schema = make_schema(cols);

  std::uniform_int_distribution<int> nconstraints_d(0, ncols);
  const int nconstraints = nconstraints_d(rng);
  for (int k = 0; k < nconstraints; ++k) {
    std::uniform_int_distribution<int> col(0, ncols - 1);
    in.constraints.push_back(
        ColumnConstraint{names[col(rng)], random_expr(rng, names, alpha, 2)});
  }

  Table inc = generate_incremental(in);
  Table mono = naive::generate_monolithic(in);
  EXPECT_TRUE(inc.set_equal(mono))
      << "ncols=" << ncols << " alpha=" << alpha
      << " constraints=" << nconstraints;
  EXPECT_EQ(inc.row_count(), mono.row_count());
}

TEST_P(GeneratorEquivalence, GeneratedRowsSatisfyAllConstraints) {
  std::mt19937 rng(GetParam() + 1000);
  std::vector<std::string> names{"a", "b", "c"};
  GenerationInput in;
  in.schema = Schema::of(names);
  for (const auto& n : names) {
    in.domains.emplace_back(n, std::vector<std::string>{"v0", "v1", "v2"});
  }
  for (int k = 0; k < 3; ++k) {
    in.constraints.push_back(
        ColumnConstraint{names[k % 3], random_expr(rng, names, 3, 2)});
  }
  Table t = generate_incremental(in);
  for (const auto& c : in.constraints) {
    CompiledExpr p = compile(c.expr, t.schema(), *in.schema, nullptr);
    for (std::size_t r = 0; r < t.row_count(); ++r) {
      EXPECT_TRUE(p.eval(t.row(r))) << c.expr.to_string();
    }
  }
  // And every cross-product row NOT in t violates some constraint.
  Table mono = naive::generate_monolithic(in);
  EXPECT_TRUE(t.set_equal(mono));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorEquivalence,
                         ::testing::Range(1u, 21u));

}  // namespace
}  // namespace ccsql
