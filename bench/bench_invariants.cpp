// Experiment INV (DESIGN.md): the section 4.3 invariant suite.
//
// The paper: "All of the protocol invariants (around 50) are checked on a
// SUN Sparc 10 within 5 minutes."  We time the full suite, a single
// invariant, and raw SQL query throughput over the directory table.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.hpp"
#include "checks/invariant.hpp"

namespace {

using namespace ccsql;
using namespace ccsql::bench;

void BM_FullInvariantSuite(benchmark::State& state) {
  const ProtocolSpec& spec = asura_spec();
  InvariantChecker checker(spec.database());
  std::size_t checked = 0;
  for (auto _ : state) {
    auto results = checker.check_all(spec.invariants());
    checked = results.size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["invariants"] = static_cast<double>(checked);
}
BENCHMARK(BM_FullInvariantSuite)->Unit(benchmark::kMillisecond);

void BM_SingleInvariant(benchmark::State& state) {
  const ProtocolSpec& spec = asura_spec();
  InvariantChecker checker(spec.database());
  const NamedInvariant& inv = spec.invariants().front();
  for (auto _ : state) {
    auto r = checker.check(inv);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SingleInvariant)->Unit(benchmark::kMicrosecond);

void BM_SqlSelectOverD(benchmark::State& state) {
  const Database& db = asura_spec().database();
  for (auto _ : state) {
    Table t = db.query(
        "select inmsg, bdirst, locmsg from D where isrequest(inmsg) and "
        "not bdirst = \"I\" and not locmsg = \"retry\"").rows;
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_SqlSelectOverD)->Unit(benchmark::kMicrosecond);

void BM_SqlParseInvariant(benchmark::State& state) {
  const NamedInvariant& inv = asura_spec().invariants().front();
  for (auto _ : state) {
    auto stmts = parse_invariant(inv.sql);
    benchmark::DoNotOptimize(stmts);
  }
}
BENCHMARK(BM_SqlParseInvariant)->Unit(benchmark::kMicrosecond);

/// Violation detection cost: suite run against a corrupted table (the
/// failing path materialises violating rows).
void BM_SuiteWithInjectedViolation(benchmark::State& state) {
  const ProtocolSpec& spec = asura_spec();
  Database db = spec.database();
  Table d = db.get("D");
  std::vector<Value> row(d.row(0).begin(), d.row(0).end());
  row[d.schema().index_of("dirst")] = V("MESI");
  row[d.schema().index_of("dirpv")] = V("zero");
  d.append(RowView(row));
  db.put("D", std::move(d));
  InvariantChecker checker(db);
  std::size_t violated = 0;
  for (auto _ : state) {
    auto results = checker.check_all(spec.invariants());
    violated = 0;
    for (const auto& r : results) {
      if (!r.holds) ++violated;
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["violated"] = static_cast<double>(violated);
}
BENCHMARK(BM_SuiteWithInjectedViolation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace ccsql;
  using namespace ccsql::bench;
  std::printf("# Experiment INV: %zu invariants over %zu controller tables "
              "(paper: ~50 invariants, < 5 minutes on a Sparc 10)\n",
              asura_spec().invariants().size(),
              asura_spec().controllers().size());
  enable_metrics();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_metrics_summary();
  return 0;
}
