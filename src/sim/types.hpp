#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "relational/value.hpp"

namespace ccsql::sim {

/// Node/quad identifier.  The simulator models one node per quad (the
/// paper's quads contain 4 nodes; coherence traffic is quad-level, so one
/// representative node per quad exercises the same protocol paths).
using QuadId = int;

/// Cache-line address.  The home quad of an address is addr % n_quads.
using Addr = int;

/// A protocol message in flight.
struct SimMessage {
  Value type;        // catalogued message name
  Addr addr = 0;
  QuadId src = 0;
  QuadId dst = 0;
  /// Role-level (source, destination) as stamped by the emitting controller
  /// table row — the key into the virtual channel assignment V.  Roles are
  /// carried explicitly because co-located roles (the paper's quad
  /// placements) make them unrecoverable from the quad endpoints alone.
  Value role_src;
  Value role_dst;
  /// Data version carried by data-bearing messages (coherence monitor).
  std::int64_t version = -1;

  [[nodiscard]] std::string to_string() const {
    return std::string(type.str()) + "(a" + std::to_string(addr) + " " +
           std::to_string(src) + "->" + std::to_string(dst) + ")";
  }
};

/// Cycle-delay cost model (after the classic snooping-simulator numbers:
/// 100 cycles to reach main memory, `4N + (P+1)` for a cache-to-cache
/// block transfer of N words across P processors — the P+1 models the
/// coordination overhead — 2 cycles per bus/interconnect transaction, and
/// cache hits are free).  Every run charges these per event, so results
/// report cycles and events/cycle alongside raw step counts.  The costs are
/// fixed; only the cache-to-cache transfer varies, with the quad count.
struct CycleModel {
  static constexpr int kMemoryCycles = 100;  // cache <-> main memory
  static constexpr int kBusCycles = 2;       // per interconnect message
  static constexpr int kWordsPerLine = 4;    // N in the c2c formula
  /// Cache-to-cache block transfer: 4N + (P+1) for `quads` processors.
  [[nodiscard]] static constexpr int c2c_cycles(int quads) noexcept {
    return 4 * kWordsPerLine + (quads + 1);
  }
};

/// Always-on per-run event counters (plain increments, cheap enough for the
/// hot path).  Flushed into the global ccsql::obs metrics at the end of a
/// run and printed by `ccsql sim --metrics`.
struct SimCounters {
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t table_hits = 0;    // controller-table lookups that matched
  std::uint64_t table_misses = 0;  // specification incompleteness
  std::uint64_t send_stalls = 0;   // consume deferred: an output channel full
  std::uint64_t ops_injected = 0;  // processor/device ops issued
  std::uint64_t cache_hits = 0;    // ops completed locally (0 cycles)
  // Cycle-cost breakdown (CycleModel); cycles is the sum of the parts.
  std::uint64_t cycles = 0;
  std::uint64_t mem_cycles = 0;    // 100-cycle memory accesses
  std::uint64_t bus_cycles = 0;    // 2-cycle interconnect transactions
  std::uint64_t c2c_cycles = 0;    // 4N+(P+1) cache-to-cache transfers
  /// Per-run throughput, set by Machine::run() from wall time.  A *rate*:
  /// deliberately not additive, so operator+= zeroes it — sweep aggregation
  /// recomputes it from the merged events() and the sweep's wall clock.
  std::uint64_t events_per_sec = 0;
  /// Messages sent per virtual channel; the NULL key is the dedicated path.
  std::map<Value, std::uint64_t> per_vc_sent;

  /// Simulator events: every message enqueue/dequeue and every injected
  /// operation — the unit the events/sec throughput figures count.
  [[nodiscard]] std::uint64_t events() const noexcept {
    return msgs_sent + msgs_recv + ops_injected;
  }

  /// Merges another run's counters (sweep aggregation).  All additive
  /// fields sum; events_per_sec is reset to 0 (rates do not sum).
  SimCounters& operator+=(const SimCounters& o);

  /// Aligned per-run table ("counter  value" lines, VC breakdown last).
  [[nodiscard]] std::string summary() const;
};

/// Workload shapes the simulator can generate (modeled on the classic
/// adaptive-coherence test programs: a test-and-set lock, a producer/
/// consumer hand-off, false sharing, and a streaming scan).  All are
/// deterministic per (shape, node, tick) — only kRandom draws from the
/// seeded RNG — so sweep results replay bit-identically.
enum class Workload {
  kRandom,            // the legacy seeded mixed workload
  kLock,              // all nodes contend on a test-and-set lock line
  kProducerConsumer,  // even nodes write a buffer ring, odd nodes read it
  kFalseSharing,      // node pairs ping-pong writes on one shared line
  kStreaming,         // sequential scans with no reuse
};

/// Workload name <-> enum (CLI / sweep grids).  Unknown names -> nullopt.
std::optional<Workload> parse_workload(std::string_view name);
std::string_view workload_name(Workload w);

/// True iff a workload may inject the operation `name` (prd, pwr, patomic,
/// iord, iowr, pup, pfl, pevict, pwb): the names SimConfig::workload_ops
/// accepts.
[[nodiscard]] bool is_workload_op(std::string_view name);

/// Simulation configuration.
struct SimConfig {
  int n_quads = 2;
  int n_addrs = 4;
  /// Per-link per-channel FIFO capacity; small capacities expose the
  /// Figure 4 deadlock quickly.
  int channel_capacity = 1;
  /// Maximum scheduler steps before the run is declared stalled.
  std::uint64_t max_steps = 200000;
  /// Transactions to inject per node.
  int transactions_per_node = 50;
  /// Per-node budgets overriding transactions_per_node (index = node id;
  /// nodes beyond the vector keep the uniform budget).  More budgets than
  /// n_quads make Machine throw invalid_argument.  Asymmetric budgets
  /// break quad interchangeability, so the reachability explorer disables
  /// symmetry reduction when this is set.
  std::vector<int> transactions_by_node;
  /// When non-empty, the random workload injects only these operation
  /// names (directed exploration of a suspected interleaving, e.g.
  /// {"prd", "patomic"} for the Figure 4 memory-interference wedge).  A
  /// name outside is_workload_op makes Machine throw invalid_argument:
  /// silently dropping it would shrink the search to a false proof.
  std::vector<std::string> workload_ops;
  /// Workload shape driven by enable_workload() (kRandom reproduces the
  /// legacy enable_random_workload behavior exactly).
  Workload workload = Workload::kRandom;
  unsigned seed = 1;
};

}  // namespace ccsql::sim
