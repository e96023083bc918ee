#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "protocol/channel_assignment.hpp"
#include "protocol/controller_spec.hpp"
#include "protocol/roles.hpp"
#include "relational/table.hpp"

namespace ccsql {

/// A controller table together with the interpretation of its message
/// ports, as consumed by the deadlock analysis.
struct ControllerTableRef {
  std::string name;
  const Table* table = nullptr;
  MessageTriple input;
  std::vector<MessageTriple> outputs;

  /// Binds a spec's port declarations to its generated table.
  static ControllerTableRef from_spec(const ControllerSpec& spec,
                                      const Table& table);
};

/// One row of a (individual / pairwise / protocol) dependency table:
/// input assignment (m1,s1,d1,v1) followed by output assignment
/// (m2,s2,d2,v2) — processing a message held in v1 requires a free slot in
/// v2 (paper, section 4.1).
struct DependencyRow {
  Value m1, s1, d1, v1;
  Value m2, s2, d2, v2;
  QuadPlacement placement = QuadPlacement::kAllDistinct;
  bool composed = false;       // produced by pairwise composition
  bool ignored_message = false;  // produced by the relaxed matching
  std::string origin;          // human-readable provenance
};

/// A cycle in the virtual channel dependency graph: the channel sequence
/// (first channel repeated implicitly) and one witness dependency row per
/// edge.
struct VcgCycle {
  std::vector<Value> channels;
  std::vector<DependencyRow> witnesses;

  [[nodiscard]] std::string to_string() const;
};

/// Options controlling the analysis.  Defaults reproduce the paper's
/// procedure: all five quad placements, one round of pairwise composition
/// with both exact and message-ignoring matching.
struct DeadlockOptions {
  bool use_placements = true;   // all five quad-placement relations
  bool ignore_messages = true;  // the interleaving relaxation
  int composition_rounds = 1;   // paper used 1; footnote 2 allows more
  std::size_t max_cycles = 64;  // cap on reported simple cycles
  /// Parallel lanes: the five placement relations build concurrently and
  /// the composition join fans out across the pool.  0 = process default
  /// (core::Pool::default_jobs); results are identical at any value.
  std::size_t jobs = 0;
};

/// The SQL-based deadlock detection method of section 4.1: build the
/// protocol dependency table from the controller tables and the virtual
/// channel assignment V, derive the virtual channel dependency graph, and
/// report cycles.
class DeadlockAnalysis {
 public:
  DeadlockAnalysis(std::vector<ControllerTableRef> tables,
                   const ChannelAssignment& v,
                   DeadlockOptions options = {});

  /// Individual controller dependency rows (all placements), before
  /// composition.
  [[nodiscard]] const std::vector<DependencyRow>& controller_rows() const {
    return controller_rows_;
  }

  /// The full protocol dependency table rows (controller rows plus
  /// pairwise compositions), deduplicated on the 8-tuple.
  [[nodiscard]] const std::vector<DependencyRow>& protocol_rows() const {
    return protocol_rows_;
  }

  /// The protocol dependency table as a relation with columns
  /// m1,s1,d1,v1,m2,s2,d2,v2 — the tabular form of VCG.
  [[nodiscard]] Table protocol_dependency_table() const;

  /// Distinct VCG edges (v1 -> v2) with one witness row index each.
  struct Edge {
    Value from, to;
    std::size_t witness;  // index into protocol_rows()
  };
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  /// Simple cycles of the VCG (bounded by options.max_cycles), each with
  /// witness rows.  An empty result certifies absence of deadlocks under
  /// this assignment.
  [[nodiscard]] const std::vector<VcgCycle>& cycles() const {
    return cycles_;
  }
  [[nodiscard]] bool deadlock_free() const { return cycles_.empty(); }

  /// Channels that appear in at least one cycle.
  [[nodiscard]] std::vector<Value> cyclic_channels() const;

  /// Human-readable report of edges and cycles.
  [[nodiscard]] std::string report() const;

 private:
  void build_controller_rows(const std::vector<ControllerTableRef>& tables,
                             const ChannelAssignment& v);
  void compose();
  void build_graph();
  void find_cycles();

  DeadlockOptions options_;
  std::vector<DependencyRow> controller_rows_;
  std::vector<DependencyRow> protocol_rows_;
  std::vector<Edge> edges_;
  std::vector<VcgCycle> cycles_;
};

}  // namespace ccsql
