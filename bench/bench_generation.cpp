// Experiment TBL-D / FIG3 (DESIGN.md): controller-table generation.
//
// Reproduces the paper's section 3 cost story: incremental generation (one
// column at a time, pruning after each) produces the directory controller
// table in interactive time, while solving the conjunction monolithically
// over the full cross product blows up exponentially with the column count
// ("a few minutes ... whereas it takes around 6 hours" on their Oracle8 /
// Sparc 10 setup).  We sweep the column-count prefix of D for both
// strategies and report the incremental generation of every full controller
// table.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.hpp"
#include "solver/generator.hpp"
#include "support/naive_solver.hpp"

namespace {

using namespace ccsql;
using namespace ccsql::bench;

void BM_IncrementalPrefix(benchmark::State& state) {
  GenerationInput in = prefix_input(asura_spec(), asura::kDirectory,
                                    static_cast<std::size_t>(state.range(0)));
  std::size_t rows = 0;
  for (auto _ : state) {
    Table t = generate_incremental(in, asura_functions());
    rows = t.row_count();
    benchmark::DoNotOptimize(t);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["cross"] =
      static_cast<double>(naive::cross_cardinality(in));
}
BENCHMARK(BM_IncrementalPrefix)->DenseRange(4, 14, 2)->Unit(benchmark::kMicrosecond);

void BM_MonolithicPrefix(benchmark::State& state) {
  GenerationInput in = prefix_input(asura_spec(), asura::kDirectory,
                                    static_cast<std::size_t>(state.range(0)));
  std::size_t rows = 0;
  for (auto _ : state) {
    Table t = naive::generate_monolithic(in, asura_functions());
    rows = t.row_count();
    benchmark::DoNotOptimize(t);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["cross"] =
      static_cast<double>(naive::cross_cardinality(in));
}
// Beyond ~14 columns the cross product is out of reach — exactly the
// paper's point.
BENCHMARK(BM_MonolithicPrefix)->DenseRange(4, 14, 2)->Unit(benchmark::kMicrosecond);

void BM_GenerateController(benchmark::State& state, const char* name) {
  const ProtocolSpec& spec = asura_spec();
  const GenerationInput& in = spec.controller(name).generation_input();
  std::size_t rows = 0;
  for (auto _ : state) {
    Table t = generate_incremental(in, asura_functions());
    rows = t.row_count();
    benchmark::DoNotOptimize(t);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK_CAPTURE(BM_GenerateController, D, ccsql::asura::kDirectory)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GenerateController, M, ccsql::asura::kMemory)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GenerateController, NC, ccsql::asura::kNode)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GenerateController, CC, ccsql::asura::kCache)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GenerateController, RAC, ccsql::asura::kRac)
    ->Unit(benchmark::kMicrosecond);

/// Ablation: the same columns and constraints, but generated in reversed
/// column order.  Constraints bind late, pruning disappears, and the cost
/// approaches the monolithic cross product — the paper's "inputs first"
/// ordering is what makes incremental generation fast.
void BM_IncrementalReversedOrder(benchmark::State& state) {
  GenerationInput in = reversed_prefix_input(
      asura_spec(), asura::kDirectory,
      static_cast<std::size_t>(state.range(0)));
  std::size_t rows = 0;
  for (auto _ : state) {
    Table t = generate_incremental(in, asura_functions());
    rows = t.row_count();
    benchmark::DoNotOptimize(t);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_IncrementalReversedOrder)->DenseRange(4, 10, 2)
    ->Unit(benchmark::kMicrosecond);

/// Incremental re-generation after a constraint update (the paper: "the use
/// of constraints also considerably reduces the time to update the
/// controller tables") — regenerate D from scratch, which is the update
/// cost in this methodology.
void BM_FullProtocolGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto spec = asura::make_asura();
    const Database& db = spec->database();
    benchmark::DoNotOptimize(db.tables().size());
  }
}
BENCHMARK(BM_FullProtocolGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace ccsql;
  using namespace ccsql::bench;
  // Print the FIG3/TBL-D context rows the paper reports before timing.
  const Table& d = asura_spec().database().get(asura::kDirectory);
  std::printf("# Experiment TBL-D: directory controller D = %zu rows x %zu "
              "cols, %zu busy states (paper: ~500 x 30, ~40 busy states)\n",
              d.row_count(), d.column_count(), asura::busy_states().size());
  IncrementalTrace trace;
  (void)asura_spec().controller(asura::kDirectory).generate(asura_functions(),
                                                           &trace);
  // The solver's per-column breakdown: rows left after each column's
  // constraints, and the wall time of that cross+filter step.
  std::printf("# incremental pruning trace (column: rows-after/us):");
  for (const auto& s : trace.steps) {
    std::printf(" %s:%llu/%llu", s.column.c_str(),
                static_cast<unsigned long long>(s.rows_after),
                static_cast<unsigned long long>(s.micros));
  }
  std::printf("\n");
  enable_metrics();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_metrics_summary();
  return 0;
}
