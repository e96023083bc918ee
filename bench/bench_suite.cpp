// Experiment SUITE (DESIGN.md section 9): serial vs parallel checking layer.
//
// The paper's 300-second budget covers the whole ASURA invariant suite; the
// parallel runner fans the suite out across the shared pool (one task per
// invariant) and the VCG composition builds its five quad-placement
// relations concurrently.  Each workload is timed at --jobs 1 and at higher
// lane counts; the determinism contract (identical output at any jobs
// value) is what makes the comparison apples-to-apples.
//
// The speedup-at-N-threads summary is emitted twice: as benchmark counters
// (`jobs`) on each timing, and as one machine-readable
// `# suite_speedup {...}` JSON line plus `bench.suite_*_us` metrics for
// harnesses that scrape stdout.  On a single-core container the speedup is
// ~1x by construction; the infrastructure reports whatever the hardware
// gives it.
//
// `--smoke` (stripped before google-benchmark sees argv) restricts the
// google-benchmark sweep to the jobs=1 variants and takes single
// measurements in the speedup reports — the CI perf-smoke configuration.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.hpp"
#include "checks/invariant.hpp"
#include "checks/vcg.hpp"
#include "core/pool.hpp"
#include "obs/obs.hpp"

namespace {

using namespace ccsql;
using namespace ccsql::bench;

bool g_smoke = false;

/// The ASURA invariant suite through the session facade at `jobs` lanes.
void BM_InvariantSuite(benchmark::State& state) {
  const std::size_t jobs = static_cast<std::size_t>(state.range(0));
  Database db = asura_spec().database();
  db.set_jobs(jobs);
  InvariantChecker checker(db);
  std::size_t violated = 0;
  for (auto _ : state) {
    auto results = checker.check_all(asura_spec().invariants());
    violated = 0;
    for (const auto& r : results) {
      if (!r.holds) ++violated;
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["jobs"] = static_cast<double>(jobs);
  state.counters["violated"] = static_cast<double>(violated);
}
BENCHMARK(BM_InvariantSuite)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

std::vector<ControllerTableRef> vcg_refs() {
  std::vector<ControllerTableRef> refs;
  for (const auto& c : asura_spec().controllers()) {
    refs.push_back(ControllerTableRef::from_spec(
        *c, asura_spec().database().get(c->name())));
  }
  return refs;
}

/// Full VCG deadlock analysis (placement relations + pairwise composition
/// + cycle search) under the paper's V5 assignment at `jobs` lanes.
void BM_VcgCompose(benchmark::State& state) {
  const std::size_t jobs = static_cast<std::size_t>(state.range(0));
  const auto refs = vcg_refs();
  const ChannelAssignment& v5 = asura_spec().assignment(asura::kAssignV5);
  std::size_t rows = 0;
  for (auto _ : state) {
    DeadlockOptions opts;
    opts.jobs = jobs;
    DeadlockAnalysis analysis(refs, v5, opts);
    rows = analysis.protocol_rows().size();
    benchmark::DoNotOptimize(analysis);
  }
  state.counters["jobs"] = static_cast<double>(jobs);
  state.counters["pdt_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_VcgCompose)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// One direct serial-vs-parallel measurement outside the google-benchmark
/// loop, recorded into the metrics registry so the scraped `# metrics`
/// JSON carries the speedup inputs.
void report_suite_speedup() {
  using clock = std::chrono::steady_clock;
  const std::size_t wide = core::Pool::default_jobs();

  auto time_suite = [&](std::size_t jobs) {
    Database db = asura_spec().database();
    db.set_jobs(jobs);
    InvariantChecker checker(db);
    const auto t0 = clock::now();
    auto results = checker.check_all(asura_spec().invariants());
    benchmark::DoNotOptimize(results);
    return std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                                 t0)
        .count();
  };
  // Warm caches (lazy indexes, symbol interning), then take the best of
  // several runs per config so the ratio reflects steady state, not noise
  // (one run each under --smoke).
  (void)time_suite(1);
  auto best_of = [&](std::size_t jobs) {
    auto best = time_suite(jobs);
    for (int i = 0; i < (g_smoke ? 0 : 4); ++i) {
      best = std::min(best, time_suite(jobs));
    }
    return best;
  };
  const auto serial_us = best_of(1);
  const auto parallel_us = best_of(wide);

  CCSQL_COUNT("bench.suite_serial_us", static_cast<std::uint64_t>(serial_us));
  CCSQL_COUNT("bench.suite_parallel_us",
              static_cast<std::uint64_t>(parallel_us));
  CCSQL_COUNT("bench.suite_jobs", static_cast<std::uint64_t>(wide));
  std::printf(
      "# suite_speedup {\"jobs\":%zu,\"serial_us\":%lld,\"parallel_us\":%lld,"
      "\"speedup\":%.2f}\n",
      wide, static_cast<long long>(serial_us),
      static_cast<long long>(parallel_us),
      parallel_us > 0 ? static_cast<double>(serial_us) /
                            static_cast<double>(parallel_us)
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
  std::printf("# Experiment SUITE: serial vs parallel ASURA invariant suite "
              "and VCG composition (pool default_jobs = %zu)%s\n",
              ccsql::core::Pool::default_jobs(), g_smoke ? " (smoke)" : "");
  enable_metrics();
  // Smoke mode keeps only the jobs=1 sweep variants: the speedup reports
  // below still cover the parallel path, without the full 8-config matrix.
  static char smoke_filter[] = "--benchmark_filter=/1$";
  std::vector<char*> bench_args(argv, argv + argc);
  if (g_smoke) bench_args.push_back(smoke_filter);
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  benchmark::RunSpecifiedBenchmarks();
  report_suite_speedup();
  finish_metrics("bench_suite");
  return 0;
}
