#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include "protocol/asura/asura.hpp"

namespace ccsql::sim {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

/// Everything but the wall-clock rate must match (events_per_sec is the one
/// timing-dependent counter field).
void expect_counters_eq(const SimCounters& a, const SimCounters& b) {
  EXPECT_EQ(a.msgs_sent, b.msgs_sent);
  EXPECT_EQ(a.msgs_recv, b.msgs_recv);
  EXPECT_EQ(a.table_hits, b.table_hits);
  EXPECT_EQ(a.table_misses, b.table_misses);
  EXPECT_EQ(a.send_stalls, b.send_stalls);
  EXPECT_EQ(a.ops_injected, b.ops_injected);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.mem_cycles, b.mem_cycles);
  EXPECT_EQ(a.bus_cycles, b.bus_cycles);
  EXPECT_EQ(a.c2c_cycles, b.c2c_cycles);
  EXPECT_EQ(a.per_vc_sent, b.per_vc_sent);
}

void expect_result_eq(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.stalled, b.stalled);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.transactions_done, b.transactions_done);
  EXPECT_EQ(a.errors, b.errors);
  expect_counters_eq(a.counters, b.counters);
}

/// A small but non-trivial grid: two topologies, every workload shape, two
/// seeds — enough cells that a racy slot write or out-of-order merge would
/// show up, small enough for test time.
std::vector<SweepRun> small_grid() {
  std::vector<SweepRun> grid;
  const Workload shapes[] = {Workload::kRandom, Workload::kLock,
                             Workload::kProducerConsumer,
                             Workload::kFalseSharing, Workload::kStreaming};
  for (int quads : {2, 4}) {
    for (Workload wl : shapes) {
      for (unsigned seed : {1u, 7u}) {
        SweepRun cell;
        cell.config.n_quads = quads;
        cell.config.n_addrs = quads * 2;
        cell.config.channel_capacity = 2;
        cell.config.transactions_per_node = 25;
        cell.config.workload = wl;
        cell.config.seed = seed;
        cell.assignment = asura::kAssignV5Fix;
        cell.memory_latency = 2;
        grid.push_back(std::move(cell));
      }
    }
  }
  return grid;
}

/// The determinism contract: the merged counters and every per-run result
/// are byte-identical at any job count.
TEST(Sweep, DeterministicAcrossJobCounts) {
  const SweepEngine engine(spec());
  const auto grid = small_grid();
  const SweepResult j1 = engine.run(grid, 1);
  const SweepResult j4 = engine.run(grid, 4);
  const SweepResult j8 = engine.run(grid, 8);

  EXPECT_TRUE(j1.all_healthy());
  ASSERT_EQ(j1.runs.size(), grid.size());
  ASSERT_EQ(j4.runs.size(), grid.size());
  ASSERT_EQ(j8.runs.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(grid[i].label());
    expect_result_eq(j1.runs[i], j4.runs[i]);
    expect_result_eq(j1.runs[i], j8.runs[i]);
  }
  expect_counters_eq(j1.merged, j4.merged);
  expect_counters_eq(j1.merged, j8.merged);
  EXPECT_EQ(j1.events, j4.events);
  EXPECT_EQ(j1.events, j8.events);
  EXPECT_EQ(j1.completed, j4.completed);
  // Merged counters follow the operator+= contract: the rate is zeroed and
  // recomputed at sweep level.
  EXPECT_EQ(j1.merged.events_per_sec, 0u);
  EXPECT_EQ(j1.events, j1.merged.events());
}

/// A parallel sweep must agree with the obvious sequential oracle: build
/// each cell's Machine by hand in grid order, run it, and fold counters
/// with SimCounters::operator+=.
TEST(Sweep, MatchesSequentialOracle) {
  const SweepEngine engine(spec());
  const auto grid = small_grid();
  const SweepResult swept = engine.run(grid, 4);

  auto tables = CompiledTables::compile(spec());
  SimCounters oracle_merged;
  std::uint64_t oracle_events = 0;
  ASSERT_EQ(swept.runs.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(grid[i].label());
    const SweepRun& cell = grid[i];
    Machine m(spec(), spec().assignment(cell.assignment), cell.config, tables);
    m.set_memory_latency(cell.memory_latency);
    m.enable_workload();
    const SimResult r = m.run();
    expect_result_eq(swept.runs[i], r);
    oracle_merged += r.counters;
    oracle_events += r.counters.events();
  }
  expect_counters_eq(swept.merged, oracle_merged);
  EXPECT_EQ(swept.events, oracle_events);
}

/// A wedged cell (here: a stall forced by an impossible step budget) must
/// flip all_healthy() — the sweep tool's non-zero exit criterion — while
/// the healthy cells still complete.
TEST(Sweep, UnhealthyCellFailsTheSweep) {
  const SweepEngine engine(spec());
  std::vector<SweepRun> grid = small_grid();
  grid.resize(3);
  grid[1].config.max_steps = 10;  // cannot finish 25 txns/node in 10 steps
  const SweepResult r = engine.run(grid, 2);
  EXPECT_FALSE(r.all_healthy());
  EXPECT_EQ(r.stalled, 1);
  EXPECT_EQ(r.deadlocked, 0);
  EXPECT_EQ(r.completed, 2);
  EXPECT_TRUE(r.runs[0].healthy());
  EXPECT_TRUE(r.runs[1].stalled);
  EXPECT_TRUE(r.runs[2].healthy());
}

/// A sweep cell on the engine's shared tables replays exactly like a
/// Machine that compiles its own tables.
TEST(Sweep, SharedTablesMatchPrivateCompile) {
  const SweepEngine engine(spec());
  SweepRun cell;
  cell.config.n_quads = 3;
  cell.config.n_addrs = 6;
  cell.config.channel_capacity = 2;
  cell.config.transactions_per_node = 25;
  cell.config.seed = 7;
  cell.assignment = asura::kAssignV5Fix;
  cell.memory_latency = 2;
  const SweepResult r = engine.run({cell, cell}, 2);
  EXPECT_TRUE(r.all_healthy());
  expect_result_eq(r.runs[0], r.runs[1]);

  Machine m(spec(), spec().assignment(cell.assignment), cell.config);
  m.set_memory_latency(cell.memory_latency);
  m.enable_workload();
  expect_result_eq(r.runs[0], m.run());
}

TEST(Sweep, DefaultGridShape) {
  const auto grid = default_sweep_grid(asura::kAssignV5Fix, 2);
  // quads {2,3,4} x cap {1,2,4} x 5 workloads x 2 seeds
  EXPECT_EQ(grid.size(), 3u * 3u * 5u * 2u);
  for (const auto& cell : grid) {
    EXPECT_EQ(cell.assignment, asura::kAssignV5Fix);
    EXPECT_FALSE(cell.label().empty());
  }
}

}  // namespace
}  // namespace ccsql::sim
