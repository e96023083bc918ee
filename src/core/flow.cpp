#include "core/flow.hpp"

#include <chrono>
#include <algorithm>
#include <sstream>

#include "obs/obs.hpp"
#include "sim/machine.hpp"

namespace ccsql {

bool FlowReport::invariants_hold() const {
  return InvariantChecker::all_hold(invariants);
}

bool FlowReport::invariants_within_budget() const {
  return InvariantChecker::within_budget(invariants);
}

bool FlowReport::deadlock_free(std::string_view assignment) const {
  for (const auto& a : assignments) {
    if (!assignment.empty() && a.name != assignment) continue;
    if (!a.cycles.empty()) return false;
  }
  return true;
}

bool FlowReport::debugged(std::string_view assignment) const {
  return invariants_hold() && deadlock_free(assignment) &&
         (!mapping_ran || mapping.ok()) && (!sim.ran || sim.healthy);
}

std::string FlowReport::summary() const {
  std::ostringstream os;
  os << "controller tables:\n";
  for (const auto& t : tables) {
    os << "  " << t.name << ": " << t.rows << " rows x " << t.cols
       << " cols (" << static_cast<long>(t.gen_micros) << " us)\n";
  }
  std::size_t violated = 0;
  for (const auto& r : invariants) {
    if (!r.holds) ++violated;
  }
  const double suite_us = InvariantChecker::total_micros(invariants);
  os << "invariants: " << invariants.size() << " checked, " << violated
     << " violated, " << static_cast<long>(suite_us) << " us total (budget "
     << (invariants_within_budget() ? "OK" : "EXCEEDED") << ")\n";
  for (const auto& a : assignments) {
    os << "assignment " << a.name << ": " << a.dependency_rows
       << " dependency rows, " << a.edges << " VCG edges, " << a.cycles.size()
       << " cycle(s)\n";
  }
  if (mapping_ran) {
    os << "hardware mapping: ED " << mapping.ed_rows << " rows, "
       << mapping.table_rows.size() << " implementation tables, "
       << (mapping.ok() ? "verified" : "FAILED") << "\n";
  }
  if (sim.ran) {
    os << "sim validation (" << sim.assignment << "): "
       << (sim.healthy ? "healthy" : "UNHEALTHY") << ", " << sim.transactions
       << " transactions in " << sim.steps << " steps, " << sim.error_count
       << " error(s)";
    if (!sim.detail.empty()) os << " [" << sim.detail << "]";
    os << "\n";
  } else if (sim.skipped) {
    os << "sim validation: skipped (" << sim.detail << ")\n";
  }
  return os.str();
}

FlowReport Flow::run(const FlowOptions& options) const {
  FlowReport report;
  CCSQL_SPAN(flow_span, "flow.run", "core");

  // 1. Generate the controller tables (paper, section 3).
  {
    CCSQL_SPAN(span, "flow.generate", "core");
    for (const auto& c : spec_->controllers()) {
      const auto start = std::chrono::steady_clock::now();
      c->invalidate();
      const Table& t = c->generate(&spec_->database().functions());
      const auto end = std::chrono::steady_clock::now();
      report.tables.push_back(FlowReport::TableInfo{
          c->name(), t.row_count(), t.column_count(),
          std::chrono::duration<double, std::micro>(end - start).count()});
    }
    span.arg("tables", report.tables.size());
  }

  // 2. Static checks: invariants (section 4.3).
  {
    CCSQL_SPAN(span, "flow.invariants", "core");
    InvariantChecker checker(spec_->database());
    report.invariants = checker.check_all(spec_->invariants());
    span.arg("checked", report.invariants.size())
        .arg("within_budget", report.invariants_within_budget());
  }

  // 3. Static checks: deadlocks per channel assignment (section 4.1).
  {
    CCSQL_SPAN(span, "flow.deadlock", "core");
    std::vector<ControllerTableRef> refs;
    for (const auto& c : spec_->controllers()) {
      refs.push_back(ControllerTableRef::from_spec(
          *c, spec_->database().get(c->name())));
    }
    for (const auto& a : spec_->assignments()) {
      if (!options.assignments.empty() &&
          std::find(options.assignments.begin(), options.assignments.end(),
                    a->name()) == options.assignments.end()) {
        continue;
      }
      DeadlockAnalysis analysis(refs, *a, options.vcg);
      FlowReport::AssignmentResult result;
      result.name = a->name();
      result.dependency_rows = analysis.protocol_rows().size();
      result.edges = analysis.edges().size();
      result.cycles = analysis.cycles();
      report.assignments.push_back(std::move(result));
    }
    span.arg("assignments", report.assignments.size());
  }

  // 4. Hardware mapping (section 5).
  if (options.map_directory) {
    CCSQL_SPAN(span, "flow.mapping", "core");
    report.mapping = mapping::verify_directory_mapping(*spec_);
    report.mapping_ran = true;
    span.arg("ok", report.mapping.ok());
  }

  // 5. Dynamic validation: a small random workload on the table-driven
  // simulator, under the first cycle-free analysed assignment.
  if (options.sim_validate) {
    CCSQL_SPAN(span, "flow.sim_validate", "core");
    const FlowReport::AssignmentResult* chosen = nullptr;
    for (const auto& a : report.assignments) {
      if (a.cycles.empty()) {
        chosen = &a;
        break;
      }
    }
    if (chosen == nullptr) {
      report.sim.skipped = true;
      report.sim.detail = "no cycle-free assignment to simulate";
    } else {
      report.sim.assignment = chosen->name;
      try {
        sim::SimConfig cfg;
        cfg.n_quads = 2;
        cfg.n_addrs = 4;
        cfg.channel_capacity = 2;
        cfg.transactions_per_node = options.sim_transactions;
        sim::Machine m(*spec_, spec_->assignment(chosen->name), cfg);
        m.set_memory_latency(2);
        m.enable_workload();
        sim::SimResult r = m.run();
        report.sim.ran = true;
        report.sim.healthy = r.healthy();
        report.sim.steps = r.steps;
        report.sim.transactions = r.transactions_done;
        report.sim.error_count = r.errors.size();
        if (!r.errors.empty()) report.sim.detail = r.errors.front();
        else if (r.deadlocked) report.sim.detail = "deadlocked";
        else if (r.stalled) report.sim.detail = "stalled";
      } catch (const std::exception& e) {
        // The simulator is ASURA-shaped; other specs legitimately lack the
        // tables it drives.  Record why and carry on.
        report.sim = FlowReport::SimValidation{};
        report.sim.skipped = true;
        report.sim.detail = e.what();
      }
    }
    span.arg("ran", report.sim.ran).arg("healthy", report.sim.healthy);
  }

  flow_span.arg("debugged_all", report.invariants_hold() &&
                                    report.deadlock_free(""));
  return report;
}

}  // namespace ccsql
