// Experiment PLAN (DESIGN.md section 8): naive vs planned query execution.
//
// The paper leans on Oracle8's optimizer to make invariant queries cheap;
// here the ccsql planner (src/plan) provides the same leverage.  Each shape
// below is timed through the naive reference executor (naive::run, the
// test-only oracle in tests/support/naive_exec) and through the planner
// (plan::run_select), on the real ASURA tables.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "plan/planner.hpp"
#include "relational/database.hpp"
#include "support/naive_exec.hpp"

namespace {

using namespace ccsql;
using namespace ccsql::bench;

// `--smoke` (stripped before google-benchmark sees argv) shrinks the
// synthetic workloads so the CI perf-smoke job finishes in seconds while
// keeping every shape (scan, join, count) on the same code paths.
bool g_smoke = false;

// The cross+equality shape of the mem-wb-reaches-completion invariant: the
// naive executor materialises the D x M cross product, the planner runs an
// index lookup feeding a join routed on its equality (a keyed index probe).
constexpr const char* kJoinSql =
    "Select a.memmsg, b.inmsg, b.outmsg from D a, M b "
    "where a.memmsg = b.inmsg and a.memmsg = \"wb\" and "
    "not b.outmsg = \"compl\"";

// Self-join of the 331-row directory implementation table: the worst case
// for the naive cross product (~110k intermediate rows).
constexpr const char* kSelfJoinSql =
    "Select a.inmsg, b.inmsg from D a, D b "
    "where a.memmsg = b.memmsg and a.memmsg = \"wb\" and "
    "not a.dirst = b.dirst";

// Single-table point-lookup shape (first SELECT of
// dir-state-pv-consistency).
constexpr const char* kPointSql =
    "Select dirst, dirpv from D where dirst = \"MESI\" and "
    "not dirpv = \"one\"";

void run_shape(benchmark::State& state, const char* sql, bool planned) {
  const Database& db = asura_spec().database();
  SelectStmt stmt = parse_select(sql);
  std::size_t rows = 0;
  for (auto _ : state) {
    Table t = planned ? plan::run_select(db, stmt) : naive::run(db, stmt);
    rows = t.row_count();
    benchmark::DoNotOptimize(t);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_JoinNaive(benchmark::State& state) { run_shape(state, kJoinSql, false); }
void BM_JoinPlanned(benchmark::State& state) {
  run_shape(state, kJoinSql, true);
}
BENCHMARK(BM_JoinNaive)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_JoinPlanned)->Unit(benchmark::kMicrosecond);

void BM_SelfJoinNaive(benchmark::State& state) {
  run_shape(state, kSelfJoinSql, false);
}
void BM_SelfJoinPlanned(benchmark::State& state) {
  run_shape(state, kSelfJoinSql, true);
}
BENCHMARK(BM_SelfJoinNaive)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SelfJoinPlanned)->Unit(benchmark::kMicrosecond);

void BM_PointLookupNaive(benchmark::State& state) {
  run_shape(state, kPointSql, false);
}
void BM_PointLookupPlanned(benchmark::State& state) {
  run_shape(state, kPointSql, true);
}
BENCHMARK(BM_PointLookupNaive)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PointLookupPlanned)->Unit(benchmark::kMicrosecond);

// Emptiness is the invariant checker's fast path: the planner stops at the
// first row (Limit 1); the naive check materialises the whole result.
void BM_ExistsNaive(benchmark::State& state) {
  const Database& db = asura_spec().database();
  SelectStmt stmt = parse_select(kSelfJoinSql);
  for (auto _ : state) {
    bool empty = naive::run(db, stmt).row_count() == 0;
    benchmark::DoNotOptimize(empty);
  }
}
void BM_ExistsPlanned(benchmark::State& state) {
  const Database& db = asura_spec().database();
  SelectStmt stmt = parse_select(kSelfJoinSql);
  for (auto _ : state) {
    bool empty = db.check_empty(stmt);
    benchmark::DoNotOptimize(empty);
  }
}
BENCHMARK(BM_ExistsNaive)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ExistsPlanned)->Unit(benchmark::kMicrosecond);

// ---- morsel-driven parallel execution --------------------------------------
//
// The ASURA tables are a few hundred rows — below the 2048-row parallel
// threshold — so the parallel operators are exercised on a seeded synthetic
// workload sized like a generated implementation table.  Identical output
// at every jobs value is enforced by tests/plan/parallel_property_test.cpp;
// here only the wall clock varies.

Database synthetic_db(std::size_t left_rows, std::size_t right_rows) {
  std::mt19937 rng(2026);
  auto randcol = [&](std::size_t n) {
    return std::string("v").append(std::to_string(rng() % n));
  };
  Database cat;
  Table l(Schema::of({"k", "p", "q"}));
  l.reserve_rows(left_rows);
  for (std::size_t i = 0; i < left_rows; ++i) {
    l.append_texts({randcol(4096), randcol(8), randcol(8)});
  }
  cat.put("L", std::move(l));
  Table r(Schema::of({"k", "r"}));
  r.reserve_rows(right_rows);
  for (std::size_t i = 0; i < right_rows; ++i) {
    r.append_texts({randcol(4096), randcol(8)});
  }
  cat.put("R", std::move(r));
  return cat;
}

Database big_db() {
  return g_smoke ? synthetic_db(20'000, 8'000)
                 : synthetic_db(200'000, 50'000);
}

void run_parallel_shape(benchmark::State& state, const char* sql) {
  static Database db = big_db();
  db.set_jobs(static_cast<std::size_t>(state.range(0)));
  SelectStmt stmt = parse_select(sql);
  std::size_t rows = 0;
  for (auto _ : state) {
    QueryResult qr = db.query(stmt);
    rows = qr.row_count();
    benchmark::DoNotOptimize(qr);
  }
  state.counters["jobs"] = static_cast<double>(state.range(0));
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_BigFilterParallel(benchmark::State& state) {
  run_parallel_shape(state, "select k, p from L where p = v3 and q = v5");
}
BENCHMARK(BM_BigFilterParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_BigJoinParallel(benchmark::State& state) {
  run_parallel_shape(state,
                     "select a.p, b.r from L a, R b where a.k = b.k "
                     "and a.p = v0 and b.r = v1");
}
BENCHMARK(BM_BigJoinParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_BigCountParallel(benchmark::State& state) {
  run_parallel_shape(state, "select count(*) from L where p = v3");
}
BENCHMARK(BM_BigCountParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// ---- columnar 1M-row shapes ------------------------------------------------
//
// The acceptance gate for the columnar storage engine (DESIGN.md section
// 13): full-scan filter and many-to-many hash join over a 1M-row table,
// timed directly (best of 5) and emitted as scrapeable metrics that the CI
// perf-smoke job diffs against bench/baselines/query-smoke.json.
void report_query_timings(std::size_t rows) {
  using clock = std::chrono::steady_clock;
  Database db = synthetic_db(rows, rows / 4);
  const SelectStmt scan =
      parse_select("select k, p from L where p = v3 and q = v5");
  const SelectStmt join =
      parse_select("select a.p, b.r from L a, R b where a.k = b.k");
  auto time_us = [&](const SelectStmt& stmt) {
    const auto t0 = clock::now();
    QueryResult qr = db.query(stmt);
    benchmark::DoNotOptimize(qr);
    return std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                                 t0)
        .count();
  };
  auto best_of = [&](const SelectStmt& stmt) {
    auto best = time_us(stmt);
    for (int i = 0; i < 4; ++i) best = std::min(best, time_us(stmt));
    return best;
  };
  (void)time_us(join);  // warm (builds and caches the join index)
  const auto scan_us = best_of(scan);
  const auto join_us = best_of(join);
  CCSQL_COUNT("bench.query_rows", static_cast<std::uint64_t>(rows));
  CCSQL_COUNT("bench.query_scan_us", static_cast<std::uint64_t>(scan_us));
  CCSQL_COUNT("bench.query_join_us", static_cast<std::uint64_t>(join_us));
  std::printf(
      "# query_columnar {\"rows\":%zu,\"scan_us\":%lld,\"join_us\":%lld}\n",
      rows, static_cast<long long>(scan_us), static_cast<long long>(join_us));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccsql;
  using namespace ccsql::bench;
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

  std::printf("# Experiment PLAN: naive executor vs query planner on ASURA "
              "invariant query shapes (D = %zu rows)%s\n",
              asura_spec().database().get("D").row_count(),
              g_smoke ? " (smoke)" : "");
  enable_metrics();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  report_query_timings(g_smoke ? 50'000 : 1'000'000);
  finish_metrics("bench_query");
  return 0;
}
