// Workload `flow`: the push-button methodology a designer waits on after
// every spec edit.  One caller runs Flow::run in a closed loop with the
// directory mapping and simulator validation on, invalidating every
// controller between runs so each run generates all tables again.

#include <algorithm>
#include <map>

#include "checks/invariant.hpp"
#include "checks/vcg.hpp"
#include "core/flow.hpp"
#include "mapping/asura_map.hpp"
#include "protocol/asura/asura.hpp"
#include "sim/machine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ccsql;

constexpr std::size_t kInvariants = 70;
constexpr std::size_t kCyclesV4 = 3;
constexpr std::size_t kCyclesV5 = 3;

FlowOptions flow_options(const Options& opts) {
  FlowOptions f;
  f.map_directory = true;
  f.sim_validate = true;
  f.vcg.jobs = kJobs;
  // The seeded input: the validation run's size.
  std::mt19937_64 rng = input_rng(opts, 1);
  f.sim_transactions = 8 + static_cast<int>(rng() % 9);
  return f;
}

std::size_t cycles_of(const FlowReport& r, const std::string& assignment) {
  for (const auto& a : r.assignments) {
    if (a.name == assignment) return a.cycles.size();
  }
  return static_cast<std::size_t>(-1);
}

/// The flow gate: debugged under V5fix, all 70 invariants hold, V4 and V5
/// show their 3 cycles each, and the directory mapping verifies.
bool flow_ok(const FlowReport& r) {
  return r.debugged(asura::kAssignV5Fix) &&
         r.invariants.size() == kInvariants && r.invariants_hold() &&
         cycles_of(r, asura::kAssignV4) == kCyclesV4 &&
         cycles_of(r, asura::kAssignV5) == kCyclesV5 && r.mapping_ran &&
         r.mapping.ok() && r.sim.ran;
}

void invalidate_all(const ProtocolSpec& spec) {
  for (const auto& c : spec.controllers()) c->invalidate();
}

const char* vcg_span(const std::string& assignment) {
  // Span names are literals (SpanLog keys them by address).
  static const std::map<std::string, const char*> names = {
      {"V4", "checks.vcg.analysis.V4"},
      {"V5", "checks.vcg.analysis.V5"},
      {"V5fix", "checks.vcg.analysis.V5fix"}};
  const auto it = names.find(assignment);
  return it == names.end() ? "checks.vcg.analysis.other" : it->second;
}

/// The Flow::run stages its report does not time, repeated on the tables
/// Flow::run just generated: VCG analysis per assignment, the three
/// mapping substeps and the validation run, each inside its span (a null
/// lane times nothing).  Returns whether the flow gate's parts still hold.
bool flow_stages(const ProtocolSpec& spec, const FlowOptions& fo,
                 SpanLog::Lane* lane) {
  bool ok = true;
  bool v5fix_free = false;
  std::vector<ControllerTableRef> refs;
  for (const auto& c : spec.controllers()) {
    refs.push_back(
        ControllerTableRef::from_spec(*c, spec.database().get(c->name())));
  }
  for (const auto& a : spec.assignments()) {
    Scope s(lane, vcg_span(a->name()));
    const DeadlockAnalysis analysis(refs, *a, fo.vcg);
    const std::size_t cycles = analysis.cycles().size();
    if (a->name() == asura::kAssignV4) ok = ok && cycles == kCyclesV4;
    if (a->name() == asura::kAssignV5) ok = ok && cycles == kCyclesV5;
    if (a->name() == asura::kAssignV5Fix) v5fix_free = cycles == 0;
  }
  ok = ok && v5fix_free;
  {
    const FunctionRegistry& functions = spec.database().functions();
    std::vector<mapping::ImplementationTable> parts;
    Table ed;
    {
      Scope s(lane, "mapping.extend");
      const ControllerSpec ed_spec = mapping::make_extended_directory(spec);
      ed = ed_spec.generate(&functions);
    }
    {
      Scope s(lane, "mapping.partition");
      parts = mapping::partition_directory(ed, functions);
    }
    {
      Scope s(lane, "mapping.reconstruct");
      const Table& d = spec.database().get(asura::kDirectory);
      const Table rebuilt = mapping::reconstruct_extended(parts, ed);
      const Table base = mapping::reconstruct_base(ed, d);
      ok = ok && rebuilt.set_equal(ed) && base.set_equal(d) &&
           base.contains_all(d);
    }
  }
  {
    Scope s(lane, "sim.validate");
    sim::SimConfig cfg;
    cfg.n_quads = 2;
    cfg.n_addrs = 4;
    cfg.channel_capacity = 2;
    cfg.transactions_per_node = fo.sim_transactions;
    sim::Machine m(spec, spec.assignment(asura::kAssignV5Fix), cfg);
    m.set_memory_latency(2);
    m.enable_random_workload();
    ok = ok && m.run().healthy();
  }
  return ok;
}

double p50_us(const SpanLog::Lane& lane, const char* name) {
  const Histogram* h = lane.durations(name);
  return h == nullptr ? 0.0 : h->quantile_ns(0.5) / 1e3;
}

}  // namespace

Metrics flow_layers(const Options& opts, const ProtocolSpec& spec,
                    SpanLog::Lane& lane, Outcome& out, int min_iterations,
                    double seconds) {
  const FlowOptions fo = flow_options(opts);
  const Flow flow(spec);
  std::map<std::string, std::vector<double>> generate_us;
  std::vector<double> flow_ns, suite_us, check_us, untraced_ns, traced_ns;
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  int iterations = 0;
  while (iterations < min_iterations || now_ns() - start < budget) {
    ++iterations;
    invalidate_all(spec);
    std::uint64_t t0 = now_ns();
    const FlowReport report = flow.run(fo);
    flow_ns.push_back(static_cast<double>(now_ns() - t0));
    out.gate(flow_ok(report), "flow: Flow::run gate");
    for (const auto& t : report.tables) {
      generate_us[t.name].push_back(t.gen_micros);
    }
    suite_us.push_back(InvariantChecker::total_micros(report.invariants));
    for (const auto& r : report.invariants) check_us.push_back(r.micros);

    // The untimed stages twice, without and with spans: their difference
    // is what the spans cost.
    t0 = now_ns();
    out.gate(flow_stages(spec, fo, nullptr), "flow: stage gate");
    untraced_ns.push_back(static_cast<double>(now_ns() - t0));
    t0 = now_ns();
    out.gate(flow_stages(spec, fo, &lane), "flow: traced stage gate");
    traced_ns.push_back(static_cast<double>(now_ns() - t0));
  }

  Metrics m;
  double covered_us = 0;
  auto stage = [&m, &covered_us](const std::string& name, double us) {
    m.set(name, us, "us");
    covered_us += us;
  };
  for (const auto& [name, values] : generate_us) {
    stage("solver.generate_us." + name, median(values));
  }
  stage("checks.invariant.suite_us", median(suite_us));
  m.set("checks.invariant.check_p50_us", quantile(check_us, 0.5), "us");
  m.set("checks.invariant.check_max_us",
        check_us.empty() ? 0.0
                         : *std::max_element(check_us.begin(), check_us.end()),
        "us");
  for (const auto& a : spec.assignments()) {
    stage("checks.vcg.analysis_us." + a->name(),
          p50_us(lane, vcg_span(a->name())));
  }
  stage("mapping.extend_us", p50_us(lane, "mapping.extend"));
  stage("mapping.partition_us", p50_us(lane, "mapping.partition"));
  stage("mapping.reconstruct_us", p50_us(lane, "mapping.reconstruct"));
  stage("sim.validate_us", p50_us(lane, "sim.validate"));

  // How much of a Flow::run the stage figures above leave out.
  const double flow_us = median(flow_ns) / 1e3;
  m.set("core.flow.unaccounted_pct",
        flow_us > 0 ? 100.0 * (flow_us - covered_us) / flow_us : 0.0, "%");
  if (opts.workload == "flow") {
    report_trace_overhead(m, median(untraced_ns), median(traced_ns));
  }
  return m;
}

void run_flow(const Options& opts, Outcome& out, SpanLog* log) {
  HostSpeed host;
  const Protocol p = setup_protocol(opts, out, host);
  const ProtocolSpec& spec = *p.spec;
  if (log != nullptr) {
    out.metrics.update(
        flow_layers(opts, spec, log->lane(), out, 3, opts.seconds));
    return;
  }
  const FlowOptions fo = flow_options(opts);
  const Flow flow(spec);
  const std::vector<double> ns = timed_loop(
      opts.seconds, 3,
      [&] {
        // Flow::run regenerates every table itself; invalidating first is
        // the designer's edit-and-rerun cycle.
        invalidate_all(spec);
        out.gate(flow_ok(flow.run(fo)), "flow: Flow::run gate");
      },
      &host);
  report_end_to_end(out, per_second(static_cast<double>(ns.size()), ns),
                    median(ns), host);
}

}  // namespace perfbench
