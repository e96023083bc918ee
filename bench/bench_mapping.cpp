// Experiment FIG5 / MAP (DESIGN.md): the section 5 hardware-mapping flow.
//
// Times the three mapping stages (ED generation, partition into the nine
// implementation tables, reconstruction verification) and the code
// generation ("SQL report generation"), and prints the table inventory the
// paper describes.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.hpp"
#include "mapping/asura_map.hpp"
#include "mapping/codegen.hpp"

namespace {

using namespace ccsql;
using namespace ccsql::bench;

const Table& ed_table() {
  static const Table ed = mapping::make_extended_directory(asura_spec())
                              .generate(&asura_spec().database().functions());
  return ed;
}

void BM_GenerateEd(benchmark::State& state) {
  std::size_t rows = 0;
  for (auto _ : state) {
    ControllerSpec ed_spec = mapping::make_extended_directory(asura_spec());
    const Table ed = ed_spec.generate(&asura_spec().database().functions());
    rows = ed.row_count();
    benchmark::DoNotOptimize(ed);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_GenerateEd)->Unit(benchmark::kMillisecond);

void BM_PartitionIntoNine(benchmark::State& state) {
  const Table& ed = ed_table();
  std::size_t tables = 0;
  for (auto _ : state) {
    auto parts = mapping::partition_directory(
        ed, asura_spec().database().functions());
    tables = parts.size();
    benchmark::DoNotOptimize(parts);
  }
  state.counters["tables"] = static_cast<double>(tables);
}
BENCHMARK(BM_PartitionIntoNine)->Unit(benchmark::kMillisecond);

void BM_ReconstructAndVerify(benchmark::State& state) {
  const Table& ed = ed_table();
  auto parts =
      mapping::partition_directory(ed, asura_spec().database().functions());
  bool ok = false;
  for (auto _ : state) {
    Table rebuilt = mapping::reconstruct_extended(parts, ed);
    ok = rebuilt.set_equal(ed);
    benchmark::DoNotOptimize(rebuilt);
  }
  state.counters["verified"] = ok ? 1 : 0;
}
BENCHMARK(BM_ReconstructAndVerify)->Unit(benchmark::kMillisecond);

void BM_RecoverDebuggedTable(benchmark::State& state) {
  const Table& ed = ed_table();
  const Table& d = asura_spec().database().get(asura::kDirectory);
  bool ok = false;
  for (auto _ : state) {
    Table base = mapping::reconstruct_base(ed, d);
    ok = base.set_equal(d);
    benchmark::DoNotOptimize(base);
  }
  state.counters["verified"] = ok ? 1 : 0;
}
BENCHMARK(BM_RecoverDebuggedTable)->Unit(benchmark::kMillisecond);

void BM_CodegenAllNineTables(benchmark::State& state) {
  const Table& ed = ed_table();
  auto parts =
      mapping::partition_directory(ed, asura_spec().database().functions());
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = 0;
    for (const auto& p : parts) {
      bytes += mapping::generate_code(p.table, p.name).size();
      bytes += mapping::generate_value_declarations(p.table, p.name).size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CodegenAllNineTables)->Unit(benchmark::kMillisecond);

void BM_EndToEndMappingFlow(benchmark::State& state) {
  bool ok = false;
  for (auto _ : state) {
    auto report = mapping::verify_directory_mapping(asura_spec());
    ok = report.ok();
    benchmark::DoNotOptimize(report);
  }
  state.counters["verified"] = ok ? 1 : 0;
}
BENCHMARK(BM_EndToEndMappingFlow)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace ccsql;
  using namespace ccsql::bench;
  const Table& d = asura_spec().database().get(asura::kDirectory);
  const Table& ed = ed_table();
  std::printf("# Experiment MAP: D %zux%zu -> ED %zux%zu -> 9 implementation "
              "tables (paper, section 5)\n",
              d.row_count(), d.column_count(), ed.row_count(),
              ed.column_count());
  auto parts =
      mapping::partition_directory(ed, asura_spec().database().functions());
  for (const auto& p : parts) {
    std::printf("#   %-16s %zu rows x %zu cols\n", p.name.c_str(),
                p.table.row_count(), p.table.column_count());
  }
  enable_metrics();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_metrics_summary();
  return 0;
}
