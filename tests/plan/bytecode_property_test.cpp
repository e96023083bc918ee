// Property tests for the bytecode engine's differential contract: for any
// expression the batch engine must select exactly the rows the interpreted
// oracle (CompiledExpr) selects — over dense batches, unaligned ranges
// (Program::eval_range) and sparse selections (Program::eval_batch) — and
// whole planned queries must come out byte-identical to the naive executor
// (naive::run, tests/support) at any jobs value.  Expressions and tables are
// random but seeded, so failures replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "relational/bytecode.hpp"
#include "relational/database.hpp"
#include "relational/expr.hpp"
#include "relational/format.hpp"
#include "relational/parser.hpp"
#include "support/interpreted_expr.hpp"
#include "support/naive_exec.hpp"

namespace ccsql {
namespace {

using Rng = std::mt19937;

std::size_t pick(Rng& rng, std::size_t n) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

const std::vector<std::string> kCols = {"a", "b", "c"};
const std::vector<std::string> kValues = {"v0", "v1", "v2", "v3", "v4"};

Atom random_atom(Rng& rng) {
  // Bare identifiers double as column names and value literals, exactly the
  // ambiguity compile()/compile_bytecode() must resolve identically.
  if (pick(rng, 2) == 0) return Atom::ident(kCols[pick(rng, kCols.size())]);
  return pick(rng, 2) == 0 ? Atom::ident(kValues[pick(rng, kValues.size())])
                           : Atom::quoted(kValues[pick(rng, kValues.size())]);
}

Expr random_expr(Rng& rng, int depth) {
  const std::size_t choice = depth <= 0 ? pick(rng, 3) : pick(rng, 7);
  switch (choice) {
    case 0:
      return Expr::compare(random_atom(rng), pick(rng, 2) == 0,
                           random_atom(rng));
    case 1: {
      std::vector<Atom> set;
      const std::size_t n = 1 + pick(rng, 3);
      for (std::size_t i = 0; i < n; ++i) set.push_back(random_atom(rng));
      return Expr::in(random_atom(rng), pick(rng, 2) == 0, std::move(set));
    }
    case 2:
      return Expr::boolean(pick(rng, 2) == 0);
    case 3:
    case 4: {
      std::vector<Expr> kids;
      const std::size_t n = 2 + pick(rng, 2);
      for (std::size_t i = 0; i < n; ++i) {
        kids.push_back(random_expr(rng, depth - 1));
      }
      return choice == 3 ? Expr::conjunction(std::move(kids))
                         : Expr::disjunction(std::move(kids));
    }
    case 5:
      return Expr::negation(random_expr(rng, depth - 1));
    default:
      return Expr::ternary(random_expr(rng, depth - 1),
                           random_expr(rng, depth - 1),
                           random_expr(rng, depth - 1));
  }
}

Table random_table(Rng& rng, std::size_t rows) {
  Table t(Schema::of(kCols));
  t.reserve_rows(rows);
  std::vector<std::string> row(kCols.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& cell : row) cell = kValues[pick(rng, kValues.size())];
    t.append_texts(row);
  }
  return t;
}

// The core differential property: every batch entry point selects exactly
// the interpreter's rows.
TEST(BytecodeProperty, EnginesSelectIdenticalRows) {
  for (unsigned seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    const Table t = random_table(rng, 3000);
    const Schema& s = t.schema();
    const std::vector<const Value*> cols = t.column_ptrs();
    const std::uint32_t n = static_cast<std::uint32_t>(t.row_count());
    bc::Scratch scratch;
    for (int round = 0; round < 40; ++round) {
      const Expr e = random_expr(rng, 3);
      const CompiledExpr interp = compile(e, s, s);
      const bc::Program prog = compile_bytecode(e, s, s);

      std::vector<bool> pass(n);
      bc::Sel expected;
      for (std::uint32_t i = 0; i < n; ++i) {
        pass[i] = interp.eval(t.row(i));
        if (pass[i]) expected.push_back(i);
      }

      // Vectorized, batch-at-a-time like the executor drives it.
      bc::Sel batch_hits;
      bc::Sel sel;
      bc::Sel out;
      for (std::uint32_t b = 0; b < n; b += 1024) {
        const std::uint32_t be = std::min(n, b + 1024);
        sel.clear();
        for (std::uint32_t i = b; i < be; ++i) sel.push_back(i);
        prog.eval_batch(cols, sel, out, scratch);
        batch_hits.insert(batch_hits.end(), out.begin(), out.end());
      }
      EXPECT_EQ(batch_hits, expected)
          << "seed " << seed << " batch: " << e.to_string();

      // eval_range over an unaligned [begin, end), possibly empty.
      std::uint32_t begin = static_cast<std::uint32_t>(pick(rng, n + 1));
      std::uint32_t end = static_cast<std::uint32_t>(pick(rng, n + 1));
      if (begin > end) std::swap(begin, end);
      bc::Sel want;
      for (std::uint32_t i = begin; i < end; ++i) {
        if (pass[i]) want.push_back(i);
      }
      prog.eval_range(cols, begin, end, out, scratch);
      EXPECT_EQ(out, want) << "seed " << seed << " range [" << begin << ", "
                           << end << "): " << e.to_string();

      // eval_batch over a random sparse selection.
      const std::size_t keep = 1 + pick(rng, 8);  // keep ~1 row in `keep`
      sel.clear();
      want.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        if (pick(rng, keep) != 0) continue;
        sel.push_back(i);
        if (pass[i]) want.push_back(i);
      }
      prog.eval_batch(cols, sel, out, scratch);
      EXPECT_EQ(out, want) << "seed " << seed << " sparse 1/" << keep << ": "
                           << e.to_string();
    }
  }
}

// End to end: planned execution, at any jobs value, must match the naive
// executor byte for byte.
TEST(BytecodeProperty, QueriesByteIdenticalAcrossEnginesAndJobs) {
  for (unsigned seed : {11u, 29u}) {
    Rng rng(seed);
    Database cat;
    cat.put("T", random_table(rng, 3000));
    for (int round = 0; round < 12; ++round) {
      const std::string sql =
          "select * from T where " + random_expr(rng, 2).to_string();
      const std::string naive = to_csv(naive::run(cat, parse_select(sql)));
      for (int jobs : {1, 4}) {
        Database db = cat;
        db.set_jobs(jobs);
        EXPECT_EQ(to_csv(db.query(sql).rows), naive)
            << "seed " << seed << " jobs " << jobs << ": " << sql;
      }
    }
  }
}

}  // namespace
}  // namespace ccsql
