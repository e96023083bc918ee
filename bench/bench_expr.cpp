// Experiment EXPR (DESIGN.md section 10): predicate engine comparison.
//
// One ASURA-shaped predicate (the paper's directory column constraint — a
// ternary over conjunctions of equality tests) is evaluated over synthetic
// controller tables two ways:
//
//   interpreted — CompiledExpr::eval, the pointer-chasing AST walk
//   vectorized  — bc::Program::eval_range over 1024-row batches
//
// at 10k / 100k / 1M rows.  A direct best-of-N measurement at the largest
// size is emitted as one machine-readable `# expr_speedup {...}` JSON line
// plus `bench.expr_*_us` metrics, mirroring bench_suite's summary lines.
//
// `--smoke` (stripped before google-benchmark sees argv) shrinks every size
// so CI can run the binary in well under a second.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "relational/bytecode.hpp"
#include "relational/expr.hpp"
#include "relational/parser.hpp"
#include "relational/table.hpp"
#include "support/interpreted_expr.hpp"

namespace {

using namespace ccsql;
using namespace ccsql::bench;

bool g_smoke = false;

// The paper's transition-guard shape — a conjunction of equality tests over
// controller columns — which is what every scan/filter, join residual, and
// emptiness probe evaluates per row.
const char* kPredicate =
    "inmsg = \"readex\" and dirst != \"MESI\" and dirpv = \"zero\"";

// The directory column-constraint shape (ternary over conjunctions),
// exercising the selection-split paths.
const char* kTernaryPredicate =
    "inmsg in (\"readex\", \"wb\") and dirst != \"MESI\" "
    "? dirpv = \"zero\" : dirpv = \"one\" or dirst = \"Busy-d\"";

/// Synthetic controller table: the same few-symbol domains as ASURA's
/// directory, cycled so every branch of the predicate stays warm.
const Table& table_of(std::size_t rows) {
  static std::map<std::size_t, Table> cache;
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;
  Table t(Schema::of({"inmsg", "dirst", "dirpv"}));
  t.reserve_rows(rows);
  const char* msgs[] = {"readex", "wb", "data", "ack", "inv"};
  const char* states[] = {"I", "SI", "MESI", "Busy-d"};
  const char* pvs[] = {"zero", "one"};
  for (std::size_t i = 0; i < rows; ++i) {
    t.append({V(msgs[i % 5]), V(states[(i / 5) % 4]), V(pvs[(i / 3) % 2])});
  }
  return cache.emplace(rows, std::move(t)).first->second;
}

std::size_t scan_interpreted(const Table& t, const CompiledExpr& e) {
  std::size_t hits = 0;
  const std::size_t n = t.row_count();
  for (std::size_t i = 0; i < n; ++i) {
    if (e.eval(t.row(i))) ++hits;
  }
  return hits;
}

std::size_t scan_vectorized(const Table& t, const bc::Program& p,
                            bc::Scratch& scratch) {
  std::size_t hits = 0;
  const std::size_t n = t.row_count();
  const std::vector<const Value*> cols = t.column_ptrs();
  bc::Sel out;
  for (std::size_t b = 0; b < n; b += 1024) {
    const std::size_t be = std::min(n, b + 1024);
    p.eval_range(cols, static_cast<std::uint32_t>(b),
                 static_cast<std::uint32_t>(be), out, scratch);
    hits += out.size();
  }
  return hits;
}

const char* predicate_of(const benchmark::State& state) {
  return state.range(1) == 0 ? kPredicate : kTernaryPredicate;
}

void BM_FilterInterpreted(benchmark::State& state) {
  const Table& t = table_of(static_cast<std::size_t>(state.range(0)));
  const Schema& s = t.schema();
  const CompiledExpr e = compile(parse_expr(predicate_of(state)), s, s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan_interpreted(t, e));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.row_count()));
}

void BM_FilterVectorized(benchmark::State& state) {
  const Table& t = table_of(static_cast<std::size_t>(state.range(0)));
  const Schema& s = t.schema();
  const bc::Program p = compile_bytecode(parse_expr(predicate_of(state)), s, s);
  bc::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan_vectorized(t, p, scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.row_count()));
}

/// One direct interpreted-vs-vectorized measurement outside the
/// google-benchmark loop, emitted as a scrapeable JSON line (the acceptance
/// gate for this experiment reads `speedup` here).
void report_expr_speedup(std::size_t rows) {
  using clock = std::chrono::steady_clock;
  const Table& t = table_of(rows);
  const Schema& s = t.schema();
  const CompiledExpr interp = compile(parse_expr(kPredicate), s, s);
  const bc::Program prog = compile_bytecode(parse_expr(kPredicate), s, s);
  bc::Scratch scratch;

  auto time_us = [&](auto&& scan) {
    const auto t0 = clock::now();
    benchmark::DoNotOptimize(scan());
    return std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                                 t0)
        .count();
  };
  auto best_of = [&](auto&& scan) {
    auto best = time_us(scan);
    for (int i = 0; i < 4; ++i) best = std::min(best, time_us(scan));
    return best;
  };
  (void)best_of([&] { return scan_vectorized(t, prog, scratch); });  // warm
  const auto interp_us = best_of([&] { return scan_interpreted(t, interp); });
  const auto vector_us = best_of([&] { return scan_vectorized(t, prog, scratch); });

  CCSQL_COUNT("bench.expr_rows", static_cast<std::uint64_t>(rows));
  CCSQL_COUNT("bench.expr_interp_us", static_cast<std::uint64_t>(interp_us));
  CCSQL_COUNT("bench.expr_vector_us", static_cast<std::uint64_t>(vector_us));
  std::printf(
      "# expr_speedup {\"rows\":%zu,\"interp_us\":%lld,"
      "\"vector_us\":%lld,\"speedup\":%.2f}\n",
      rows, static_cast<long long>(interp_us),
      static_cast<long long>(vector_us),
      vector_us > 0
          ? static_cast<double>(interp_us) / static_cast<double>(vector_us)
          : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke before google-benchmark parses argv.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  const std::vector<std::int64_t> sizes =
      g_smoke ? std::vector<std::int64_t>{1000, 4000}
              : std::vector<std::int64_t>{10'000, 100'000, 1'000'000};
  for (auto* fn : {&BM_FilterInterpreted, &BM_FilterVectorized}) {
    const char* name = fn == &BM_FilterInterpreted ? "BM_FilterInterpreted"
                                                   : "BM_FilterVectorized";
    auto* b = benchmark::RegisterBenchmark(name, fn);
    for (auto n : sizes) {
      b->Args({n, 0});  // guard conjunction
      b->Args({n, 1});  // ternary column constraint
    }
    b->Unit(benchmark::kMicrosecond);
  }

  std::printf("# Experiment EXPR: interpreted vs vectorized predicate "
              "evaluation%s\n",
              g_smoke ? " (smoke)" : "");
  enable_metrics();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  report_expr_speedup(g_smoke ? 4000 : 1'000'000);
  finish_metrics("bench_expr");
  return 0;
}
