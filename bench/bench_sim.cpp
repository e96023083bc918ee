// Experiment SIM (DESIGN.md): dynamic validation of the protocol tables.
//
// Shows, as data, that the Figure 4 deadlock is real: under V5 the scripted
// interleaving wedges (and randomized workloads with small channels wedge
// with measurable probability), while under V5fix every run completes.
// Also reports simulator throughput (transactions per second) as the
// substrate cost of this validation step.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "bench/bench_util.hpp"
#include "core/pool.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace ccsql;
using namespace ccsql::bench;
using namespace ccsql::sim;

SimResult run_fig4(const char* assignment) {
  SimConfig cfg;
  cfg.n_quads = 3;
  cfg.n_addrs = 6;
  cfg.channel_capacity = 1;
  Machine m(asura_spec(), asura_spec().assignment(assignment), cfg);
  m.set_memory_latency(16);
  m.set_line(2, "MESI", {2});
  m.set_line(5, "MESI", {0});
  m.script(0, "pwb", 5);
  m.script(1, "pwr", 2);
  return m.run();
}

void BM_Fig4Scenario(benchmark::State& state, const char* assignment) {
  std::uint64_t deadlocks = 0, runs = 0;
  for (auto _ : state) {
    SimResult r = run_fig4(assignment);
    ++runs;
    if (r.deadlocked) ++deadlocks;
    benchmark::DoNotOptimize(r);
  }
  state.counters["deadlock_rate"] =
      runs ? static_cast<double>(deadlocks) / static_cast<double>(runs) : 0;
}
BENCHMARK_CAPTURE(BM_Fig4Scenario, V5, ccsql::asura::kAssignV5)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Fig4Scenario, V5fix, ccsql::asura::kAssignV5Fix)
    ->Unit(benchmark::kMicrosecond);

SimResult run_random(const char* assignment, unsigned seed, int txns,
                     int capacity) {
  SimConfig cfg;
  cfg.n_quads = 4;
  cfg.n_addrs = 8;
  cfg.channel_capacity = capacity;
  cfg.transactions_per_node = txns;
  cfg.seed = seed;
  Machine m(asura_spec(), asura_spec().assignment(assignment), cfg);
  m.set_memory_latency(3);
  m.enable_workload();
  return m.run();
}

void BM_RandomWorkloadThroughput(benchmark::State& state) {
  const int txns = static_cast<int>(state.range(0));
  std::uint64_t total_txns = 0;
  unsigned seed = 1;
  for (auto _ : state) {
    SimResult r = run_random(ccsql::asura::kAssignV5Fix, seed++, txns, 2);
    total_txns += static_cast<std::uint64_t>(r.transactions_done);
    if (!r.completed || !r.errors.empty()) {
      state.SkipWithError("unhealthy run");
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["txns/s"] = benchmark::Counter(
      static_cast<double>(total_txns), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RandomWorkloadThroughput)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void set_metric(const std::string& name, std::uint64_t value) {
  obs::Tracer::global().metrics().set(name, value);
}

std::uint64_t rate(std::uint64_t events, double seconds) {
  return static_cast<std::uint64_t>(events / (seconds > 0 ? seconds : 1e-9));
}

/// One single-machine throughput run on the reference 4-quad config.
SimResult run_throughput() {
  SimConfig cfg;
  cfg.n_quads = 4;
  cfg.n_addrs = 8;
  cfg.channel_capacity = 2;
  cfg.transactions_per_node = 1500;
  cfg.max_steps = 2000000;
  cfg.seed = 7;
  Machine m(asura_spec(), asura_spec().assignment(ccsql::asura::kAssignV5Fix),
            cfg);
  m.set_memory_latency(3);
  m.enable_workload();
  return m.run();
}

/// The CI perf-smoke legs: fixed configs, one run each, ccsql-bench/1 out.
int run_smoke() {
  std::printf("# Experiment SIM (smoke): simulator throughput in events/sec "
              "(pool default_jobs = %zu)\n",
              core::Pool::default_jobs());
  enable_metrics();

  const SimResult dense = run_throughput();
  set_metric("bench.sim.dense_events", dense.counters.events());
  set_metric("bench.sim.dense_events_per_sec_qps",
             rate(dense.counters.events(), dense.seconds));
  std::printf("#   dense:  %llu events in %llu steps, %.3fs (%llu/s)\n",
              static_cast<unsigned long long>(dense.counters.events()),
              static_cast<unsigned long long>(dense.steps), dense.seconds,
              static_cast<unsigned long long>(
                  rate(dense.counters.events(), dense.seconds)));

  // Pool-parallel sweep over the default validation grid.
  const SweepEngine engine(asura_spec());
  const auto grid = default_sweep_grid(ccsql::asura::kAssignV5Fix, 2);
  const SweepResult sweep = engine.run(grid, core::Pool::default_jobs());
  set_metric("bench.sim.sweep_runs", grid.size());
  set_metric("bench.sim.sweep_events", sweep.events);
  set_metric("bench.sim.sweep_events_per_sec_qps", sweep.events_per_sec);
  set_metric("bench.sim.sweep_cycles", sweep.merged.cycles);
  std::printf("#   sweep:  %zu runs, %llu events in %.3fs (%llu/s)\n",
              grid.size(), static_cast<unsigned long long>(sweep.events),
              sweep.seconds,
              static_cast<unsigned long long>(sweep.events_per_sec));

  finish_metrics("bench_sim");
  // The smoke run doubles as a sanity gate: the reference run replays its
  // pinned trajectory (the event and step counts the hashed and dense
  // engines both produced before dense became the only one), and the
  // default sweep is fully healthy.
  constexpr std::uint64_t kReferenceEvents = 92786;
  constexpr std::uint64_t kReferenceSteps = 8619;
  const bool ok = dense.healthy() &&
                  dense.counters.events() == kReferenceEvents &&
                  dense.steps == kReferenceSteps && sweep.all_healthy();
  if (!ok) std::fprintf(stderr, "bench_sim: smoke verdict mismatch\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccsql;
  using namespace ccsql::bench;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  std::printf("# Experiment SIM: Figure 4 deadlock, dynamically\n");
  for (const char* a : {asura::kAssignV5, asura::kAssignV5Fix}) {
    SimResult r = run_fig4(a);
    std::printf("#   fig4 under %-6s: %s in %llu steps\n", a,
                r.deadlocked ? "DEADLOCK" : (r.completed ? "completed"
                                                          : "stalled"),
                static_cast<unsigned long long>(r.steps));
  }
  // Deadlock manifestation rate across random seeds, by channel capacity:
  // deeper channels hide the Figure 4 wedge from random testing, which is
  // why the static analysis matters.
  for (int cap : {1, 2, 4}) {
    for (const char* a : {asura::kAssignV5, asura::kAssignV5Fix}) {
      int deadlocked = 0, unhealthy = 0;
      const int kRuns = 60;
      for (unsigned seed = 1; seed <= kRuns; ++seed) {
        SimResult r = run_random(a, seed, 40, cap);
        if (r.deadlocked) ++deadlocked;
        if (!r.errors.empty()) ++unhealthy;
      }
      std::printf("#   random (cap=%d, 60 seeds) under %-6s: %d/%d runs "
                  "deadlock, %d coherence violations\n",
                  cap, a, deadlocked, kRuns, unhealthy);
    }
  }
  enable_metrics();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_metrics_summary();
  return 0;
}
