// Workload `reach`: one complete explore_parallel search of the explicit
// state space (2 quads x 1 address x 2 ops per node, capacity 1, V5fix,
// symmetry off), repeated for the run's duration.  The tables are built
// during set-up, so the time goes to sim::Machine snapshot/restore/hash
// and the explorer's visited set.  The 3-op space (309,345 states) takes
// 13 s at jobs 1, too long for a median within one run.

#include <deque>
#include <unordered_set>

#include "checks/reach.hpp"
#include "protocol/asura/asura.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ccsql;

/// An explorer configuration with the exact counts its search must find.
struct ReachCase {
  ReachParallelConfig config;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
};

ReachCase reach_case(int ops_per_node, std::size_t jobs) {
  ReachCase c;
  c.config.n_quads = 2;
  c.config.n_addrs = 1;
  c.config.channel_capacity = 1;
  c.config.ops_per_node = ops_per_node;
  c.config.symmetry = false;
  c.config.jobs = jobs;
  // Recorded from complete searches; any change is a correctness failure.
  if (ops_per_node == 3) {
    c.states = 309'345;
    c.transitions = 753'947;
  } else if (ops_per_node == 2) {
    c.states = 37'743;
    c.transitions = 84'255;
  } else if (ops_per_node == 1) {
    c.states = 1'261;
    c.transitions = 2'459;
  }
  return c;
}

/// The workload's case: the full configuration, or the census one in
/// test-size runs.
ReachCase workload_case(const Options& opts) {
  return reach_case(opts.tiny ? 1 : 2, kJobs);
}

/// The reach gate: exact state and transition counts, a complete search,
/// no deadlock and no coherence violation.
bool reach_ok(const ReachResult& r, const ReachCase& c) {
  return r.states == c.states && r.transitions == c.transitions &&
         r.complete && r.deadlock_states == 0 && r.violations.empty();
}

struct HashKey {
  std::size_t operator()(const std::array<std::uint64_t, 2>& h) const {
    return static_cast<std::size_t>(h[0] ^ (h[1] * 0x9E3779B97F4A7C15ull));
  }
};

double rate(std::uint64_t states, double ns) {
  return ns > 0 ? static_cast<double>(states) / (ns / 1e9) : 0.0;
}

/// checks.reach.* for `c`: untraced and traced explorations for `seconds`
/// each (at least one), then the sequential explore() oracle and a
/// jobs = 1 explore_parallel as serial references.
Metrics reach_layers(const Options& opts, const ProtocolSpec& spec,
                     SpanLog::Lane& lane, Outcome& out, const ReachCase& c,
                     double seconds) {
  const ChannelAssignment& v = spec.assignment(asura::kAssignV5Fix);
  const std::vector<double> untraced = timed_loop(seconds, 1, [&] {
    out.gate(reach_ok(explore_parallel(spec, v, c.config), c),
             "reach: explore_parallel gate");
  });
  ReachParallelResult last;
  const std::vector<double> traced = timed_loop(seconds, 1, [&] {
    Scope s(&lane, "checks.reach.explore");
    last = explore_parallel(spec, v, c.config);
    out.gate(reach_ok(last, c), "reach: explore_parallel gate");
  });
  Metrics m;
  std::uint64_t t0 = now_ns();
  ReachResult oracle;
  {
    Scope s(&lane, "checks.reach.oracle");
    oracle = explore(spec, v, c.config);
  }
  const double oracle_ns = static_cast<double>(now_ns() - t0);
  out.gate(reach_ok(oracle, c), "reach: sequential explore() gate");

  ReachParallelConfig serial = c.config;
  serial.jobs = 1;
  t0 = now_ns();
  ReachParallelResult jobs1;
  {
    Scope s(&lane, "checks.reach.jobs1");
    jobs1 = explore_parallel(spec, v, serial);
  }
  const double jobs1_ns = static_cast<double>(now_ns() - t0);
  out.gate(reach_ok(jobs1, c), "reach: jobs=1 explore_parallel gate");

  m.set("checks.reach.explore_s", median(traced) / 1e9, "s");
  m.set("checks.reach.waves", static_cast<double>(last.waves), "count");
  m.set("checks.reach.dedup_ratio",
        last.transitions > 0 ? static_cast<double>(last.dedup_hits) /
                                   static_cast<double>(last.transitions)
                             : 0.0,
        "ratio");
  m.set("checks.reach.oracle_states_per_s", rate(oracle.states, oracle_ns),
        "1/s");
  m.set("checks.reach.jobs1_states_per_s", rate(jobs1.states, jobs1_ns),
        "1/s");
  if (opts.workload == "reach") {
    report_trace_overhead(m, median(untraced), median(traced));
  }
  return m;
}

}  // namespace

Metrics reach_census(const Options& opts, const ProtocolSpec& spec,
                     SpanLog::Lane& lane, Outcome& out) {
  return reach_layers(opts, spec, lane, out, reach_case(1, kJobs), 0);
}

Metrics machine_probe(const Options& opts, const ProtocolSpec& spec,
                      SpanLog::Lane& lane, Outcome& out) {
  const ReachCase c = reach_case(2, kJobs);
  sim::SimConfig cfg;
  cfg.n_quads = c.config.n_quads;
  cfg.n_addrs = c.config.n_addrs;
  cfg.channel_capacity = c.config.channel_capacity;
  cfg.transactions_per_node = c.config.ops_per_node;
  sim::Machine m(spec, spec.assignment(asura::kAssignV5Fix), cfg);
  m.enable_random_workload();

  // Breadth-first, like the explorer, over the first `limit` states.
  const std::size_t limit = opts.tiny ? 2'000 : 20'000;
  const std::vector<sim::Machine::Relabeling> identity;
  std::unordered_set<std::array<std::uint64_t, 2>, HashKey> visited;
  std::deque<sim::Machine::Snapshot> frontier;
  std::vector<std::uint64_t> words;
  double words_total = 0;
  bool clean = true;
  visited.insert(m.canonical_hash(identity));
  frontier.push_back(m.snapshot());
  while (!frontier.empty() && visited.size() < limit) {
    const sim::Machine::Snapshot state = std::move(frontier.front());
    frontier.pop_front();
    std::vector<sim::Machine::Action> actions;
    {
      Scope s(&lane, "sim.machine.restore");
      m.restore(state);
    }
    {
      Scope s(&lane, "sim.machine.possible_actions");
      actions = m.possible_actions();
    }
    for (const auto& action : actions) {
      {
        Scope s(&lane, "sim.machine.restore");
        m.restore(state);
      }
      m.clear_errors();
      bool fired = false;
      {
        Scope s(&lane, "sim.machine.apply_action");
        fired = m.apply_action(action);
      }
      if (!fired) continue;
      clean = clean && m.errors().empty();
      std::array<std::uint64_t, 2> h{};
      {
        Scope s(&lane, "sim.machine.canonical_hash");
        h = m.canonical_hash(identity);
      }
      if (!visited.insert(h).second) continue;
      {
        Scope s(&lane, "sim.machine.snapshot");
        frontier.push_back(m.snapshot());
      }
      words.clear();
      m.encode_state(words);
      words_total += static_cast<double>(words.size());
    }
  }
  out.gate(clean && visited.size() >= limit,
           "reach: machine probe found a violation or ran dry");

  Metrics metrics;
  for (const auto& [name, span] :
       {std::pair{"sim.machine.snapshot_ns", "sim.machine.snapshot"},
        {"sim.machine.restore_ns", "sim.machine.restore"},
        {"sim.machine.possible_actions_ns", "sim.machine.possible_actions"},
        {"sim.machine.apply_action_ns", "sim.machine.apply_action"},
        {"sim.machine.canonical_hash_ns", "sim.machine.canonical_hash"}}) {
    const Histogram* h = lane.durations(span);
    metrics.set(name, h == nullptr ? 0.0 : h->quantile_ns(0.5), "ns");
  }
  metrics.set("sim.machine.encode_words",
              visited.size() > 1
                  ? words_total / static_cast<double>(visited.size() - 1)
                  : 0.0,
              "count");
  return metrics;
}

void run_reach(const Options& opts, Outcome& out, SpanLog* log) {
  HostSpeed host;
  const Protocol p = setup_protocol(opts, out, host);
  const ProtocolSpec& spec = *p.spec;
  const ReachCase c = workload_case(opts);
  if (log != nullptr) {
    out.metrics.update(
        reach_layers(opts, spec, log->lane(), out, c, opts.seconds / 2));
    return;
  }
  const ChannelAssignment& v = spec.assignment(asura::kAssignV5Fix);
  const std::vector<double> ns = timed_loop(
      opts.seconds, 1,
      [&] {
        out.gate(reach_ok(explore_parallel(spec, v, c.config), c),
                 "reach: explore_parallel gate");
      },
      &host);
  report_end_to_end(
      out, per_second(static_cast<double>(c.states * ns.size()), ns),
      median(ns), host);
}

}  // namespace perfbench
