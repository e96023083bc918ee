#pragma once

#include <map>
#include <string>
#include <vector>

#include "checks/invariant.hpp"
#include "checks/vcg.hpp"
#include "mapping/asura_map.hpp"
#include "protocol/protocol_spec.hpp"

namespace ccsql {

/// Options for one run of the methodology flow.
struct FlowOptions {
  /// Channel assignments to analyse for deadlocks; empty = all of the
  /// spec's assignments.  Every name must be one of the spec's.
  std::vector<std::string> assignments;
  DeadlockOptions vcg;
  /// Run the section 5 hardware-mapping flow for the directory controller
  /// (ASURA-shaped specs only: requires a controller named "D").
  bool map_directory = false;
  /// Dynamic validation: drive the table-driven simulator with a small
  /// random workload under the first cycle-free analysed assignment.
  /// Skipped gracefully (reported, not fatal) on specs the ASURA-shaped
  /// simulator cannot execute.
  bool sim_validate = true;
  /// Workload size for the validation run (transactions per node).
  int sim_transactions = 12;
};

/// Everything one run of the flow produced: per-table generation stats,
/// invariant results, per-assignment cycle reports and (optionally) the
/// hardware-mapping verification.
struct FlowReport {
  struct TableInfo {
    std::string name;
    std::size_t rows = 0;
    std::size_t cols = 0;
    double gen_micros = 0.0;
  };

  std::vector<TableInfo> tables;
  std::vector<InvariantResult> invariants;
  struct AssignmentResult {
    std::string name;
    std::size_t dependency_rows = 0;
    std::size_t edges = 0;
    std::vector<VcgCycle> cycles;
  };
  std::vector<AssignmentResult> assignments;
  mapping::MappingReport mapping;
  bool mapping_ran = false;

  /// Outcome of the dynamic-validation simulation (FlowOptions::sim_validate).
  struct SimValidation {
    bool ran = false;      // a run finished (healthy or not)
    bool skipped = false;  // spec not executable by the ASURA-shaped sim
    std::string assignment;
    bool healthy = false;
    std::uint64_t steps = 0;
    int transactions = 0;
    std::size_t error_count = 0;
    std::string detail;  // first error, or the reason it was skipped
  };
  SimValidation sim;

  /// True iff every invariant holds.
  [[nodiscard]] bool invariants_hold() const;

  /// True iff the invariant suite finished inside the paper's <5-minute
  /// interactive budget (trivially true when invariants were not run).
  [[nodiscard]] bool invariants_within_budget() const;

  /// True iff the named assignment was analysed and is cycle-free; with no
  /// name, iff every analysed assignment is.
  [[nodiscard]] bool deadlock_free(std::string_view assignment = "") const;

  /// The paper's acceptance criterion for an enhanced architecture
  /// specification: tables generated, all invariants hold, the chosen
  /// assignment is deadlock-free, (when run) the mapping round-trips and
  /// the validation simulation is healthy.
  [[nodiscard]] bool debugged(std::string_view assignment) const;

  /// Human-readable multi-line summary.
  [[nodiscard]] std::string summary() const;
};

/// The push-button methodology of the paper: from a protocol spec
/// ("database input": schemas, constraints, checks) to debugged tables and
/// verified implementation tables.
class Flow {
 public:
  explicit Flow(const ProtocolSpec& spec) : spec_(&spec) {}

  /// Regenerates every controller table into the spec's database (see
  /// ProtocolSpec::regenerate for what that invalidates), then runs the
  /// checks on them.  Throws BindError if `options.assignments` names an
  /// assignment the spec does not have.
  [[nodiscard]] FlowReport run(const FlowOptions& options = {}) const;

 private:
  const ProtocolSpec* spec_;
};

}  // namespace ccsql
