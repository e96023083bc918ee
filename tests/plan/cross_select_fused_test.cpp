// Differential pin for the executor's Select-over-Cross path, which routes
// each left row to its candidate right rows on the predicate's guards
// (plan/route.hpp), filters only those pairs, and gathers the surviving
// rows from each side by index.  The oracle below is what the route
// replaced: materialise the whole product, filter it row by row, gather.
// Seeded random predicates over random tables must give byte-identical
// tables (same rows, same order) at every jobs level, under a row budget
// of 1, with a width-0 side, with predicates reading one side or no
// column, and through a serve cached plan whose routes are precompiled.
// Seeded guard trees cover every leaf class the route tells apart, and
// seeded top-level equalities the multi-column probe every join runs.  The
// ASURA controller tables and ED are pinned row for row by digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/pool.hpp"
#include "mapping/asura_map.hpp"
#include "plan/executor.hpp"
#include "plan/ir.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/database.hpp"
#include "relational/expr.hpp"
#include "serve/plan_cache.hpp"
#include "solver/generator.hpp"
#include "support/interpreted_expr.hpp"

namespace ccsql {
namespace {

using plan::PlanNode;
using plan::PlanPtr;

/// Every cell, column name and the row count, in order: equal dumps mean
/// byte-identical tables.
std::string dump(const Table& t) {
  std::string out = std::to_string(t.row_count()) + " rows:";
  for (const Column& c : t.schema().columns()) out += " " + c.name;
  out += "\n";
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    for (std::size_t j = 0; j < t.column_count(); ++j) {
      out += t.column(j)[i].str();
      out += j + 1 < t.column_count() ? "," : "\n";
    }
  }
  return out;
}

/// The replaced route: the full product, filtered row by row through the
/// interpreted walk, gathered.
Table oracle(const Table& l, const Table& r, const Expr& pred,
             const Schema& ident, const FunctionRegistry* fns,
             std::size_t limit = plan::kNoLimit) {
  const Table product = Table::cross(l, r);
  const CompiledExpr filter = compile(pred, product.schema(), ident, fns);
  std::vector<std::uint32_t> sel;
  for (std::size_t i = 0; i < product.row_count() && sel.size() < limit;
       ++i) {
    if (filter.eval(product.row(i))) {
      sel.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return product.gather(sel);
}

PlanPtr bound_scan(const Table& t) {
  PlanPtr scan = plan::make_node(PlanNode::Kind::kScan);
  scan->bound = &t;
  scan->schema = t.schema_ptr();
  return scan;
}

/// Select(pred) directly over Cross(l, r), unoptimised, so the executor's
/// fused path sees exactly this predicate.
PlanPtr select_over_cross(const Table& l, const Table& r, const Expr& pred) {
  PlanPtr cross = plan::make_node(PlanNode::Kind::kCross);
  std::vector<Column> cols = l.schema().columns();
  for (const Column& c : r.schema().columns()) cols.push_back(c);
  cross->schema = make_schema(std::move(cols));
  cross->children.push_back(bound_scan(l));
  cross->children.push_back(bound_scan(r));
  PlanPtr sel = plan::make_node(PlanNode::Kind::kSelect);
  sel->schema = cross->schema;
  sel->predicate = pred;
  sel->children.push_back(std::move(cross));
  return sel;
}

/// Runs the Select over Cross; `routed` (when set) receives whether the
/// route went through a keyed leaf.
Table fused(const Table& l, const Table& r, const Expr& pred,
            const Schema& ident, const FunctionRegistry* fns,
            std::size_t jobs, std::size_t limit = plan::kNoLimit,
            bool* routed = nullptr) {
  PlanPtr root = select_over_cross(l, r, pred);
  plan::ExecContext ctx{nullptr, fns, &ident, jobs};
  Table out = plan::execute(*root, ctx, limit);
  if (routed != nullptr) *routed = root->child().routed;
  return out;
}

/// "v<i>", appended: `"v" + std::to_string(i)` trips GCC 12's -Wrestrict
/// false positive at -O3.
std::string value_text(int i) {
  std::string text = "v";
  text += std::to_string(i);
  return text;
}

/// `rows` x `width` table with columns `<prefix>0..`, cells drawn from
/// v0..v4 so column-to-column comparisons match often.
Table random_table(std::mt19937& rng, const std::string& prefix,
                   std::size_t width, std::size_t rows) {
  std::vector<std::string> names;
  for (std::size_t j = 0; j < width; ++j) {
    names.push_back(prefix + std::to_string(j));
  }
  Table t(Schema::of(names));
  std::uniform_int_distribution<int> cell(0, 4);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    for (std::size_t j = 0; j < width; ++j) {
      row.push_back(V(value_text(cell(rng))));
    }
    t.append(row);
  }
  return t;
}

/// Random predicate text over `columns` (may be empty: literals only).
class PredicateGen {
 public:
  PredicateGen(std::mt19937& rng, std::vector<std::string> columns)
      : rng_(rng), columns_(std::move(columns)) {}

  std::string expr(int depth) {
    switch (pick(depth > 0 ? 7 : 3)) {
      case 0:
        return operand() + (pick(2) ? " = " : " != ") + operand();
      case 1:
        return operand() + (pick(2) ? " in (" : " not in (") + literal() +
               ", " + literal() + ")";
      case 2:
        return "isv1(" + operand() + ")";
      case 3:
        return "(" + expr(depth - 1) + " and " + expr(depth - 1) + ")";
      case 4:
        return "(" + expr(depth - 1) + " or " + expr(depth - 1) + ")";
      case 5:
        return "not (" + expr(depth - 1) + ")";
      default:
        return "(" + expr(depth - 1) + " ? " + expr(depth - 1) + " : " +
               expr(depth - 1) + ")";
    }
  }

 private:
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  std::string literal() { return value_text(pick(5)); }
  std::string operand() {
    if (columns_.empty() || pick(3) == 0) return literal();
    return columns_[static_cast<std::size_t>(
        pick(static_cast<int>(columns_.size())))];
  }

  std::mt19937& rng_;
  std::vector<std::string> columns_;
};

/// Random guard-tree text (`c ? t : e` nested) whose conditions read only
/// left columns or none, over leaves of every class the route tells apart:
/// keyed (`r = v`, `r = l`, `r in (...)` with repeated, out-of-domain and
/// left-column atoms), left-only or constant, and residual (`r != ...`,
/// two right columns, a condition that reads the right side, a call on a
/// right column).  v7 is in no table.
class GuardTreeGen {
 public:
  GuardTreeGen(std::mt19937& rng, std::vector<std::string> left,
               std::vector<std::string> right)
      : rng_(rng), left_(std::move(left)), right_(std::move(right)) {}

  std::string tree(int depth) {
    if (depth == 0 || pick(4) == 0) return leaf();
    return "(" + cond() + " ? " + tree(depth - 1) + " : " + tree(depth - 1) +
           ")";
  }

  /// A conjunction of trees and plain conjuncts, as a solver step's
  /// predicate: several routed conjuncts intersect their picks.  Half carry
  /// 1-12 top-level equalities, as a join does, which the route merges
  /// into one multi-column probe.
  std::string predicate() {
    std::string out = tree(3);
    for (int n = pick(3); n > 0; --n) {
      out += " and ";
      out += pick(2) ? tree(2) : leaf();
    }
    if (pick(2) != 0) {
      for (const std::string& eq : equalities(1 + pick(12))) {
        out += " and ";
        out += eq;
      }
    }
    return out;
  }

  /// `count` equalities `r = a` (either way round, `a` a left column or a
  /// literal) drawn from a pool of at most three, so that wide keys repeat
  /// columns and still match rows.
  std::vector<std::string> equalities(int count) {
    std::vector<std::string> pool;
    for (int n = 1 + pick(3); n > 0; --n) {
      const std::string r = rcol();
      const std::string a = pick(3) == 0 ? literal() : lcol();
      pool.push_back(pick(2) ? r + " = " + a : a + " = " + r);
    }
    std::vector<std::string> out;
    for (int n = count; n > 0; --n) {
      out.push_back(pool[static_cast<std::size_t>(
          pick(static_cast<int>(pool.size())))]);
    }
    return out;
  }

 private:
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  const std::string& of(const std::vector<std::string>& cols) {
    return cols[static_cast<std::size_t>(
        pick(static_cast<int>(cols.size())))];
  }
  std::string literal() { return pick(6) == 0 ? "v7" : value_text(pick(5)); }
  std::string lcol() { return left_.empty() ? literal() : of(left_); }
  std::string rcol() { return of(right_); }

  /// Reads left columns or none.
  std::string cond() {
    switch (pick(6)) {
      case 0:
        return lcol() + " = " + literal();
      case 1:
        return lcol() + " != " + lcol();
      case 2:
        return lcol() + " in (" + literal() + ", " + literal() + ")";
      case 3:
        return "isv1(" + lcol() + ")";
      case 4:
        return "(" + cond() + (pick(2) ? " and " : " or ") + cond() + ")";
      default:
        return literal() + " = " + literal();
    }
  }

  std::string leaf() {
    switch (pick(11)) {
      case 0:
        return rcol() + " = " + literal();
      case 1:
        return rcol() + " = " + lcol();
      case 2:
        return lcol() + " = " + rcol();
      case 3: {
        std::string set = pick(2) ? lcol() : literal();
        for (int n = 1 + pick(3); n > 0; --n) {
          set += ", ";
          set += pick(3) == 0 ? lcol() : literal();
        }
        if (pick(2) != 0) {  // every atom repeated
          const std::string once = set;
          set += ", ";
          set += once;
        }
        return rcol() + " in (" + set + ")";
      }
      case 4:
        return cond();
      case 5:
        return pick(2) ? "true" : "false";
      case 6:
        return rcol() + " != " + (pick(2) ? lcol() : literal());
      case 7:
        return rcol() + " = " + rcol();
      case 8:
        return "(" + rcol() + " = " + literal() + " ? " + cond() + " : " +
               rcol() + " = " + lcol() + ")";
      case 9:
        return "isv1(" + rcol() + ")";
      default:
        return rcol() + " not in (" + literal() + ", " + lcol() + ")";
    }
  }

  std::mt19937& rng_;
  std::vector<std::string> left_;
  std::vector<std::string> right_;
};

FunctionRegistry test_functions() {
  FunctionRegistry fns;
  fns.add_unary("isv1", [](Value v) { return v == V("v1"); });
  return fns;
}

std::vector<std::string> names_of(const Table& t) {
  std::vector<std::string> out;
  for (const Column& c : t.schema().columns()) out.push_back(c.name);
  return out;
}

/// Which columns a seeded case's predicate may read.
enum class Reads { kBoth, kLeft, kRight, kNone };

std::vector<std::string> readable(const Table& l, const Table& r,
                                  Reads reads) {
  std::vector<std::string> out;
  if (reads == Reads::kBoth || reads == Reads::kLeft) out = names_of(l);
  if (reads == Reads::kBoth || reads == Reads::kRight) {
    for (auto& n : names_of(r)) out.push_back(n);
  }
  return out;
}

void check_case(std::uint32_t seed, std::size_t lw, std::size_t rw,
                std::size_t ln, std::size_t rn, Reads reads) {
  std::mt19937 rng(seed);
  const Table l = random_table(rng, "l", lw, ln);
  const Table r = random_table(rng, "r", rw, rn);
  const FunctionRegistry fns = test_functions();
  const std::string text =
      PredicateGen(rng, readable(l, r, reads)).expr(3);
  SCOPED_TRACE("seed " + std::to_string(seed) + ": " + text);
  const Expr pred = parse_expr(text);
  const SchemaPtr wide = Table::cross(l, r).schema_ptr();
  const Schema& ident = *wide;
  const std::string want = dump(oracle(l, r, pred, ident, &fns));
  for (std::size_t jobs : {1, 4, 8}) {
    EXPECT_EQ(dump(fused(l, r, pred, ident, &fns, jobs)), want)
        << "jobs " << jobs;
  }
  EXPECT_EQ(dump(fused(l, r, pred, ident, &fns, 1, 1)),
            dump(oracle(l, r, pred, ident, &fns, 1)));
}

TEST(FusedCrossSelect, MatchesOracleOnSeededPredicates) {
  for (std::uint32_t seed = 1; seed <= 60; ++seed) {
    check_case(seed, 1 + seed % 4, 1 + seed % 3, seed % 17, 1 + seed % 9,
               Reads::kBoth);
  }
}

TEST(FusedCrossSelect, ParallelMorselsAreByteIdentical) {
  // 96 x 40 = 3,840 product rows: above the executor's parallel threshold,
  // so jobs 4 and 8 split the narrow product into morsels.
  for (std::uint32_t seed = 100; seed < 110; ++seed) {
    check_case(seed, 3, 2, 96, 40, Reads::kBoth);
  }
}

TEST(FusedCrossSelect, PredicateReadingOneSideOrNoColumn) {
  for (std::uint32_t seed = 200; seed < 220; ++seed) {
    check_case(seed, 3, 2, 12, 7, Reads::kLeft);
    check_case(seed, 3, 2, 12, 7, Reads::kRight);
    check_case(seed, 3, 2, 12, 7, Reads::kNone);
  }
}

TEST(FusedCrossSelect, WidthZeroSide) {
  for (std::uint32_t seed = 300; seed < 320; ++seed) {
    check_case(seed, 0, 2, 5, 8, Reads::kBoth);
    check_case(seed, 3, 0, 9, 4, Reads::kBoth);
  }
  // The solver's first step crosses the 1-row, 0-column unit table.
  std::mt19937 rng(7);
  const Table r = random_table(rng, "r", 2, 6);
  const FunctionRegistry fns = test_functions();
  const Expr pred = parse_expr("r0 != r1");
  const Schema& ident = r.schema();
  EXPECT_EQ(dump(fused(Table::unit(), r, pred, ident, &fns, 1)),
            dump(oracle(Table::unit(), r, pred, ident, &fns)));
}

/// One seeded guard-tree case against the oracle at jobs 1/4/8 and under a
/// row budget of 1; returns whether the route went through a keyed leaf.
bool check_guard_case(std::uint32_t seed, std::size_t lw, std::size_t rw,
                      std::size_t ln, std::size_t rn) {
  std::mt19937 rng(seed);
  const Table l = random_table(rng, "l", lw, ln);
  const Table r = random_table(rng, "r", rw, rn);
  const FunctionRegistry fns = test_functions();
  const std::string text =
      GuardTreeGen(rng, names_of(l), names_of(r)).predicate();
  SCOPED_TRACE("seed " + std::to_string(seed) + ": " + text);
  const Expr pred = parse_expr(text);
  const SchemaPtr wide = Table::cross(l, r).schema_ptr();
  const Schema& ident = *wide;
  const std::string want = dump(oracle(l, r, pred, ident, &fns));
  bool routed = false;
  for (std::size_t jobs : {1, 4, 8}) {
    EXPECT_EQ(dump(fused(l, r, pred, ident, &fns, jobs, plan::kNoLimit,
                         &routed)),
              want)
        << "jobs " << jobs;
  }
  EXPECT_EQ(dump(fused(l, r, pred, ident, &fns, 1, 1)),
            dump(oracle(l, r, pred, ident, &fns, 1)));
  return routed;
}

TEST(FusedCrossSelect, GuardTreesMatchOracle) {
  // Right tables of 6-13 rows over five values hold duplicate keys.
  std::size_t routed = 0;
  const std::uint32_t cases = 300;
  for (std::uint32_t seed = 500; seed < 500 + cases; ++seed) {
    routed += check_guard_case(seed, seed % 4, 1 + seed % 3, seed % 23,
                               6 + seed % 8);
  }
  // Most seeded trees reach a keyed leaf, so the route, not the degenerate
  // full product, is what this compares.
  EXPECT_GT(routed, cases / 2);
}

TEST(FusedCrossSelect, GuardTreesAcrossParallelMorsels) {
  // Up to 300 x 12 pairs: candidate sets past the parallel threshold.
  for (std::uint32_t seed = 900; seed < 920; ++seed) {
    check_guard_case(seed, 3, 2, 300, 12);
  }
  // 2,500 left rows: past the parallel threshold, so jobs 4 and 8 route
  // each morsel of left rows on its own.
  for (std::uint32_t seed = 920; seed < 926; ++seed) {
    check_guard_case(seed, 2, 3, 2500, 9);
  }
}

/// Only top-level equalities, optionally beside one guard tree and one
/// residual leaf: every case is a join, its 1-12 keys one probe.
TEST(FusedCrossSelect, MultiKeyEqualitiesMatchOracle) {
  const FunctionRegistry fns = test_functions();
  const auto check = [&](std::uint32_t seed, std::size_t ln) {
    std::mt19937 rng(seed);
    const Table l = random_table(rng, "l", 1 + seed % 4, ln);
    const Table r = random_table(rng, "r", 1 + seed % 5, 6 + seed % 9);
    GuardTreeGen gen(rng, names_of(l), names_of(r));
    std::string text;
    for (const std::string& eq : gen.equalities(1 + static_cast<int>(seed % 12))) {
      text += text.empty() ? eq : " and " + eq;
    }
    if (seed % 3 == 1) text += " and " + gen.tree(2);
    if (seed % 4 == 2) text += " and r0 != l0";
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + text);
    const Expr pred = parse_expr(text);
    const SchemaPtr wide = Table::cross(l, r).schema_ptr();
    const std::string want = dump(oracle(l, r, pred, *wide, &fns));
    for (std::size_t jobs : {1, 4, 8}) {
      bool routed = false;
      EXPECT_EQ(dump(fused(l, r, pred, *wide, &fns, jobs, plan::kNoLimit,
                           &routed)),
                want)
          << "jobs " << jobs;
      EXPECT_TRUE(routed);
    }
    EXPECT_EQ(dump(fused(l, r, pred, *wide, &fns, 1, 1)),
              dump(oracle(l, r, pred, *wide, &fns, 1)));
    return want != dump(Table(wide));
  };
  // Most cases find matches, so the probe's picks are what is compared.
  std::size_t matched = 0;
  for (std::uint32_t seed = 1000; seed < 1120; ++seed) {
    matched += check(seed, seed % 40);
  }
  EXPECT_GT(matched, 60u);
  for (std::uint32_t seed = 1200; seed < 1204; ++seed) check(seed, 2200);
}

TEST(FusedCrossSelect, ServeCachedPlanMatchesOracle) {
  // Predicates spanning both sides with no equality conjunct stay a
  // Select over a Cross after optimisation; the cached plan carries its
  // route precompiled.
  for (std::uint32_t seed = 400; seed < 440; ++seed) {
    std::mt19937 rng(seed);
    Database db;
    db.functions() = test_functions();
    db.put("A", random_table(rng, "l", 3, 30));
    db.put("B", random_table(rng, "r", 2, 20));
    const Table& a = db.get("A");
    const Table& b = db.get("B");
    // Seeds from 420 route on a guard tree; the others run the degenerate
    // route.
    const std::string where =
        seed >= 420
            ? GuardTreeGen(rng, names_of(a), names_of(b)).predicate()
            : "(l" + std::to_string(seed % 3) + " = r" +
                  std::to_string(seed % 2) + " or " +
                  PredicateGen(rng, readable(a, b, Reads::kBoth)).expr(2) +
                  ")";
    SCOPED_TRACE(where);
    const std::string sql = "select * from A, B where " + where;
    const SchemaPtr wide = Table::cross(a, b).schema_ptr();
    const Table want =
        oracle(a, b, parse_expr(where), *wide, &db.functions());
    const Snapshot snap = db.snapshot();
    const serve::CachedStatementPtr cs =
        serve::build_statement(snap, {parse_select(sql)});
    for (std::size_t jobs : {1, 4, 8}) {
      EXPECT_EQ(dump(serve::run_unit(*cs, 0, jobs)), dump(want))
          << "jobs " << jobs;
    }
    EXPECT_EQ(plan::is_empty(*cs->units[0].plan, serve::exec_context(*cs)),
              want.row_count() == 0);
  }
}

// ---- The ASURA tables, row for row --------------------------------------

/// FNV-1a over a table's dump.
std::uint64_t digest(const Table& t) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : dump(t)) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

/// Digests recorded before the fused path replaced materialise-then-filter:
/// generation must reproduce every table byte for byte, order included.
TEST(FusedCrossSelect, AsuraTablesMatchRecordedDigests) {
  const struct {
    const char* name;
    std::uint64_t digest;
  } kPinned[] = {
      {asura::kDirectory, 11250853528592415829ULL},
      {asura::kMemory, 14773734530504507947ULL},
      {asura::kNode, 13773616870752324800ULL},
      {asura::kCache, 15387035635211035553ULL},
      {asura::kRemoteSnoop, 6641006188462771247ULL},
      {asura::kRac, 14981890718644067042ULL},
      {asura::kIo, 17661805326545304416ULL},
      {asura::kInterrupt, 15063426139652414846ULL},
      {"ED", 7673435955667873473ULL},
  };
  auto spec = asura::make_asura();
  const FunctionRegistry* fns = &spec->database().functions();
  const ControllerSpec ed = mapping::make_extended_directory(*spec);
  const std::size_t saved_jobs = core::Pool::default_jobs();
  for (const auto& pin : kPinned) {
    const ControllerSpec& c = std::string(pin.name) == "ED"
                                  ? ed
                                  : spec->controller(pin.name);
    GenerationInput in = c.generation_input(fns);
    for (std::size_t jobs : {1, 4, 8}) {
      core::Pool::set_default_jobs(jobs);
      EXPECT_EQ(digest(generate_incremental(in)), pin.digest)
          << pin.name << " at jobs " << jobs;
    }
  }
  core::Pool::set_default_jobs(saved_jobs);
}

}  // namespace
}  // namespace ccsql
