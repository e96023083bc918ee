#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "checks/vcg.hpp"
#include "protocol/channel_assignment.hpp"
#include "protocol/protocol_spec.hpp"
#include "sim/machine.hpp"
#include "sim/types.hpp"

namespace ccsql {

/// Configuration for explicit-state reachability analysis.  State count is
/// exponential in every knob — which is the point: this is the
/// model-checking baseline the paper contrasts its SQL analyses with
/// (section 4.2 cites SPIN/SMV: powerful, but the controller tables "need
/// to be extensively abstracted to avoid the state explosion problem").
struct ReachConfig {
  int n_quads = 2;
  int n_addrs = 1;
  int channel_capacity = 1;
  /// Transaction-generating operations each node may inject, total.
  int ops_per_node = 2;
  /// Exploration budget; the search reports `complete = false` if hit.
  std::uint64_t max_states = 2'000'000;
  /// Stop as soon as one global deadlock state is found (witness hunting).
  bool stop_at_first_deadlock = false;
  /// Directed exploration: when non-empty, only these operation names are
  /// injected (e.g. {"prd", "patomic"} reaches the Figure 4 wedge without
  /// paying for the full alphabet's interleavings).
  std::vector<std::string> inject_ops;
  /// Per-node injection budgets overriding ops_per_node (index = node id;
  /// empty = uniform).  Asymmetric budgets break quad interchangeability,
  /// so explore_parallel ignores `symmetry` when this is set.
  std::vector<int> ops_by_node;
};

/// Outcome of the exhaustive search.
struct ReachResult {
  std::uint64_t states = 0;       // distinct states visited
  std::uint64_t transitions = 0;  // state transitions executed
  bool complete = false;          // search exhausted the state space
  /// Global deadlock states: messages in flight but no action can fire.
  std::uint64_t deadlock_states = 0;
  std::string deadlock_example;   // channel dump of the first one
  /// Coherence-monitor violations (SWMR, stale fills, ...) found on any
  /// path, deduplicated.
  std::vector<std::string> violations;
  double seconds = 0.0;

  [[nodiscard]] bool verified() const {
    return complete && deadlock_states == 0 && violations.empty();
  }
};

/// Breadth-first exploration of every interleaving of the table-driven
/// protocol under the given channel assignment, from the all-invalid
/// initial state.  Checks the same properties the paper establishes
/// statically: coherence invariants on every state and absence of global
/// deadlock.  Exhaustive but exponential — run it next to the millisecond
/// SQL analyses (bench_reach) to reproduce the paper's argument for the
/// database approach.
ReachResult explore(const ProtocolSpec& spec, const ChannelAssignment& v,
                    const ReachConfig& config);

// ---- Parallel, symmetry-reduced exploration ---------------------------------
// explore_parallel() is the scaled-up successor of explore(): the same BFS
// semantics, but driven as waves on the shared work-stealing pool, with the
// visited set keyed on 128-bit hashed canonical fingerprints instead of
// strings, optional quad/address orbit canonicalization, and parent-pointer
// bookkeeping so every deadlock comes back with a replayable action trace.
// Aggregates (states, transitions, deadlock count, the violation set) are
// identical at any `jobs` value, and — with symmetry off — identical to the
// sequential explore() on every config neither search truncates.

struct ReachParallelConfig : ReachConfig {
  /// Parallel lanes for wave expansion; 0 = core::Pool::default_jobs().
  std::size_t jobs = 0;
  /// Collapse states equal up to quad permutation (plus the consistent
  /// address relabeling the home function requires) onto one visited-set
  /// key.  Sound: the relabelings are automorphisms of the transition
  /// system, so verdicts are preserved; visited-state counts shrink by up
  /// to the orbit factor.
  bool symmetry = false;
  /// Memory budget in bytes for the explorer's tracked state (the
  /// MemTracker kExplorer figure: visited set, frontiers, successor
  /// buffers, parent edges); 0 = unlimited.  Checked after each wave's
  /// merge, so the search can pass it by one wave's growth; it then stops
  /// with `complete = false`, and classify_cycles reports kBudget.
  std::uint64_t max_bytes = 0;
};

/// One reachable global-deadlock state, with enough context to classify
/// VCG cycles against it and to replay it.
struct ReachDeadlock {
  std::uint64_t state = 0;            // explorer state id (BFS order)
  std::vector<Value> occupied;        // wedged virtual channels, sorted
  /// Action trace from the initial state; feeding it through a fresh
  /// sim::Machine reproduces the deadlock.
  std::vector<sim::Machine::Action> trace;
};

struct ReachParallelResult : ReachResult {
  std::uint64_t waves = 0;       // BFS depth reached
  std::uint64_t dedup_hits = 0;  // successor candidates already visited
  std::uint64_t canon_group = 1; // symmetry-group order (relabelings tried)
  /// High-water mark of the explorer's tracked bytes (see max_bytes); the
  /// same at any jobs value.
  std::uint64_t peak_bytes = 0;
  /// First deadlock found per distinct wedged-channel set, in BFS order.
  std::vector<ReachDeadlock> deadlocks;
  /// Convenience: the trace of the first deadlock (empty when none).
  std::vector<sim::Machine::Action> deadlock_trace;
};

ReachParallelResult explore_parallel(const ProtocolSpec& spec,
                                     const ChannelAssignment& v,
                                     const ReachParallelConfig& config);

// ---- VCG cycle classification ----------------------------------------------
// The static deadlock analysis (checks/vcg.hpp) reports *potential* cycles;
// classify_cycles() closes the loop against ground truth: one reachability
// run collects every distinct wedged-channel set, and each VCG cycle is
// labeled by whether some reachable deadlock's wedge is exactly the cycle's
// channel set (the Figure 4 VC2/VC4 wedge matches the VC2<->VC4 cycle, but
// not the composition-artifact VC2->VC2 / VC4->VC4 self-loops).

enum class CycleVerdict {
  kReachable,    // a reachable deadlock realizes exactly this channel set
  kUnreachable,  // search exhausted the space without realizing it
  kBudget,       // search truncated (max_states / max_bytes /
                 // first-deadlock stop)
};

struct CycleClassification {
  std::size_t cycle_index = 0;     // index into the input cycle list
  std::vector<Value> channels;     // the cycle's channel set, sorted
  CycleVerdict verdict = CycleVerdict::kBudget;
  /// Replayable witness trace for kReachable (empty otherwise).
  std::vector<sim::Machine::Action> witness;
  std::uint64_t states_searched = 0;
};

/// Labels each VCG cycle by targeted reachability under `config`.  The
/// verdicts are deterministic at any jobs value; kUnreachable is only issued
/// when the search completed, so it certifies spuriousness at this config.
std::vector<CycleClassification> classify_cycles(
    const ProtocolSpec& spec, const ChannelAssignment& v,
    const std::vector<VcgCycle>& cycles, const ReachParallelConfig& config);

/// The `ccsql reach --classify` report: one line per cycle, golden-testable.
std::string format_classification(
    const std::vector<CycleClassification>& classifications);

}  // namespace ccsql
