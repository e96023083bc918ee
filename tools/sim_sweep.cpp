// Pool-parallel validation sweep across topologies / capacities / workload
// shapes / seeds, measured in events/sec (DESIGN.md §15).
//
// Usage: sim_sweep [--jobs N] [--seeds N] [--assignment V5fix] [--quiet]
//
// The grid is run through sim::SweepEngine: the controller tables are
// dense-compiled once and shared read-only across every run; --jobs (or
// CCSQL_JOBS) picks the pool fan-out.  Merged counters are byte-identical
// at any job count.  Exit status is non-zero when any run deadlocks,
// wedges against max_steps, or reports coherence/table errors — this is
// the CI gate the TSan leg drives at --jobs 4.
//
// With CCSQL_BENCH_OUT set, emits the ccsql-bench/1 metrics document
// (events/sec as a _qps metric) for tools/bench_diff.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.hpp"
#include "core/pool.hpp"
#include "protocol/asura/asura.hpp"
#include "sim/sweep.hpp"

using namespace ccsql;
using namespace ccsql::sim;

int main(int argc, char** argv) {
  std::size_t jobs = core::Pool::default_jobs();
  unsigned seeds = 8;
  std::string assignment = asura::kAssignV5Fix;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      core::Pool::set_default_jobs(jobs == 0 ? 1 : jobs);
    } else if (arg == "--seeds" && i + 1 < argc) {
      seeds = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--assignment" && i + 1 < argc) {
      assignment = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: sim_sweep [--jobs N] [--seeds N] "
                   "[--assignment NAME] [--quiet]\n");
      return 2;
    }
  }
  if (jobs == 0) jobs = 1;

  bench::enable_metrics();
  const ProtocolSpec& spec = bench::asura_spec();
  SweepEngine engine(spec);
  const std::vector<SweepRun> grid = default_sweep_grid(assignment, seeds);
  std::printf("# sim_sweep: %zu runs (%s), jobs=%zu\n", grid.size(),
              assignment.c_str(), jobs);

  const SweepResult result = engine.run(grid, jobs);

  int bad = 0;
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const SimResult& r = result.runs[i];
    if (r.healthy()) continue;
    ++bad;
    if (!quiet && bad <= 8) {
      std::printf("BAD %s: completed=%d deadlocked=%d stalled=%d steps=%llu\n",
                  grid[i].label().c_str(), r.completed ? 1 : 0,
                  r.deadlocked ? 1 : 0, r.stalled ? 1 : 0,
                  static_cast<unsigned long long>(r.steps));
      for (const auto& e : r.errors) std::printf("  %s\n", e.c_str());
    }
  }

  std::printf(
      "# %zu runs: %d completed, %d deadlocked, %d stalled, %d unhealthy\n",
      result.runs.size(), result.completed, result.deadlocked, result.stalled,
      result.unhealthy);
  std::printf("# events %llu  cycles %llu  events/cycle %.3f\n",
              static_cast<unsigned long long>(result.events),
              static_cast<unsigned long long>(result.merged.cycles),
              result.merged.cycles
                  ? static_cast<double>(result.events) /
                        static_cast<double>(result.merged.cycles)
                  : 0.0);
  std::printf("# wall %.3fs  events/sec %llu\n", result.seconds,
              static_cast<unsigned long long>(result.events_per_sec));
  if (!quiet) {
    std::printf("%s", result.merged.summary().c_str());
  }

  CCSQL_COUNT("sim.sweep_events", result.events);
  CCSQL_COUNT("sim.sweep_events_qps", result.events_per_sec);
  CCSQL_COUNT("sim.sweep_wall_us",
              static_cast<std::uint64_t>(result.seconds * 1e6));
  bench::finish_metrics("sim_sweep");

  return result.all_healthy() && bad == 0 ? 0 : 1;
}
