#pragma once

// Pool-parallel simulation sweeps (DESIGN.md §15).
//
// A sweep runs a grid of independent simulations — topology x workload x
// channel-assignment x seed — and reports merged counters plus aggregate
// throughput in events/sec.  The engine compiles the spec's controller
// tables into dense dispatch ONCE and shares the immutable compiled form
// across every run's Machine, then fans the grid onto the process-wide
// core::Pool.
//
// Determinism contract: each grid cell writes its own result slot and the
// merge folds slots in grid order on the calling thread, so the merged
// counters and every per-run result are byte-identical at any --jobs value
// (only the wall-clock/throughput fields vary).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace ccsql::sim {

/// One grid cell: a full simulator configuration plus the V-table to wire
/// the network with and the memory latency to model.
struct SweepRun {
  SimConfig config;
  std::string assignment;  // channel-assignment name, e.g. "V5fix"
  int memory_latency = 0;

  /// One-line cell description for reports ("quads=4 cap=2 wl=lock ...").
  [[nodiscard]] std::string label() const;
};

/// Aggregate outcome of a sweep.
struct SweepResult {
  /// Per-run results, in grid order (deterministic at any job count).
  std::vector<SimResult> runs;
  /// Counters merged in grid order via SimCounters::operator+=
  /// (events_per_sec is zero here by the merge contract; the sweep-level
  /// rate lives below).
  SimCounters merged;
  int completed = 0;
  int deadlocked = 0;
  int stalled = 0;
  int unhealthy = 0;  // completed but with coherence/table errors
  /// Wall clock of the whole sweep and the recomputed aggregate rate —
  /// the only fields that vary across job counts.
  double seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t events_per_sec = 0;

  /// True when every run completed with no deadlock, stall or error —
  /// the sweep tool's exit criterion.
  [[nodiscard]] bool all_healthy() const noexcept {
    return deadlocked == 0 && stalled == 0 && unhealthy == 0;
  }
};

/// Runs sweep grids against one protocol spec, sharing one compiled
/// dispatch across every run.
class SweepEngine {
 public:
  explicit SweepEngine(const ProtocolSpec& spec);

  /// Runs every grid cell on up to `jobs` lanes of the global pool
  /// (jobs <= 1 is fully sequential on the calling thread).
  [[nodiscard]] SweepResult run(const std::vector<SweepRun>& grid,
                                std::size_t jobs) const;

  [[nodiscard]] const ProtocolSpec& spec() const noexcept { return *spec_; }

 private:
  const ProtocolSpec* spec_;
  std::shared_ptr<const CompiledTables> tables_;
};

/// The default validation grid: quads x channel capacity x workload shapes
/// x `seeds` seeds per cell under `assignment`, 60 transactions per node.
[[nodiscard]] std::vector<SweepRun> default_sweep_grid(
    const std::string& assignment, unsigned seeds);

}  // namespace ccsql::sim
