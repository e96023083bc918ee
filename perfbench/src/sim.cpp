// Workload `sim`: SweepEngine::run over the default V5fix validation grid
// with many seeds, repeated for the run's duration.  It drives the same
// sim::Machine as `reach`, through run() and dense dispatch, but never
// snapshots or restores.

#include <algorithm>
#include <memory>

#include "protocol/asura/asura.hpp"
#include "sim/dispatch.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ccsql;
using namespace ccsql::sim;

/// FNV-1a over every additive field of the merged counters, per-VC counts
/// included (keyed by channel name, so symbol interning order is moot).
std::uint64_t digest(const SimCounters& c) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const std::uint64_t v :
       {c.msgs_sent, c.msgs_recv, c.table_hits, c.table_misses, c.send_stalls,
        c.ops_injected, c.cache_hits, c.cycles, c.mem_cycles, c.bus_cycles,
        c.c2c_cycles}) {
    mix(v);
  }
  std::vector<std::pair<std::string, std::uint64_t>> per_vc;
  for (const auto& [vc, n] : c.per_vc_sent) {
    per_vc.emplace_back(std::string(vc.str()), n);
  }
  std::sort(per_vc.begin(), per_vc.end());
  for (const auto& [name, n] : per_vc) {
    for (const char ch : name) mix(static_cast<unsigned char>(ch));
    mix(n);
  }
  return h;
}

/// The default grid with its seeds drawn from the run's seed (memory
/// latency follows each cell's seed, as default_sweep_grid sets it).
std::vector<SweepRun> workload_grid(const Options& opts) {
  std::vector<SweepRun> grid =
      default_sweep_grid(asura::kAssignV5Fix, opts.tiny ? 1 : 32);
  std::mt19937_64 rng = input_rng(opts, 2);
  for (SweepRun& cell : grid) {
    cell.config.seed = static_cast<unsigned>(rng() % 1'000'000'000u) + 1;
    cell.memory_latency = static_cast<int>(cell.config.seed % 5);
  }
  return grid;
}

/// Recorded merged counters of default_sweep_grid("V5fix", 2): the model
/// counts every build must reproduce exactly.
constexpr std::uint64_t kReferenceCycles = 1'477'454;
constexpr std::uint64_t kReferenceMsgs = 119'427;
constexpr std::uint64_t kReferenceDigest = 8'445'872'420'517'308'087ull;

/// Runs `grid` for `seconds` (at least twice); every sweep must be healthy
/// and merge to the first sweep's counters.  Returns per-sweep wall ns.
std::vector<double> sweep_loop(const SweepEngine& engine,
                               const std::vector<SweepRun>& grid,
                               std::size_t jobs, double seconds,
                               SpanLog::Lane* lane, Outcome& out,
                               SweepResult& first, HostSpeed* host = nullptr) {
  bool have_first = false;
  return timed_loop(seconds, 2, [&] {
    Scope s(lane, "sim.sweep.run");
    SweepResult r = engine.run(grid, jobs);
    if (!have_first) {
      first = std::move(r);
      have_first = true;
      out.gate(first.all_healthy() &&
                   first.completed == static_cast<int>(grid.size()),
               "sim: sweep not healthy");
      return;
    }
    out.gate(r.all_healthy() && digest(r.merged) == digest(first.merged),
             "sim: sweep unhealthy or counters differ from the first sweep");
  }, host);
}

/// sim.sweep.run_s and sim.model.* for one grid.
Metrics sweep_layers(const Options& opts, const SweepEngine& engine,
                     const std::vector<SweepRun>& grid, SpanLog::Lane& lane,
                     Outcome& out, double seconds) {
  SweepResult first;
  const std::vector<double> untraced =
      sweep_loop(engine, grid, kJobs, seconds, nullptr, out, first);
  const std::vector<double> traced =
      sweep_loop(engine, grid, kJobs, seconds, &lane, out, first);
  Metrics m;
  m.set("sim.sweep.run_s", median(traced) / 1e9, "s");
  m.set("sim.model.cycles", static_cast<double>(first.merged.cycles), "count");
  m.set("sim.model.msgs", static_cast<double>(first.merged.msgs_sent),
        "count");
  if (opts.workload == "sim") {
    report_trace_overhead(m, median(untraced), median(traced));
  }
  return m;
}

/// The recorded-digest gate on the canonical two-seed grid.
void reference_gate(const SweepEngine& engine, std::size_t jobs,
                    Outcome& out) {
  const SweepResult r =
      engine.run(default_sweep_grid(asura::kAssignV5Fix, 2), jobs);
  const bool ok = r.all_healthy() && r.merged.cycles == kReferenceCycles &&
                  r.merged.msgs_sent == kReferenceMsgs &&
                  digest(r.merged) == kReferenceDigest;
  out.gate(ok, "sim: reference grid counters cycles=" +
                   std::to_string(r.merged.cycles) +
                   " msgs=" + std::to_string(r.merged.msgs_sent) +
                   " digest=" + std::to_string(digest(r.merged)) +
                   " differ from the recorded digest");
}

const char* run_span(Workload w) {
  switch (w) {
    case Workload::kRandom: return "sim.machine.run.random";
    case Workload::kLock: return "sim.machine.run.lock";
    case Workload::kProducerConsumer:
      return "sim.machine.run.producer-consumer";
    case Workload::kFalseSharing: return "sim.machine.run.false-sharing";
    case Workload::kStreaming: return "sim.machine.run.streaming";
  }
  return "sim.machine.run.other";
}

}  // namespace

Metrics sim_probe(const Options& opts, const ProtocolSpec& spec,
                  SpanLog::Lane& lane, Outcome& out) {
  const int reps = opts.tiny ? 2 : 5;
  std::shared_ptr<const CompiledTables> tables;
  for (int rep = 0; rep < reps; ++rep) {
    Scope s(&lane, "sim.dispatch.compile");
    tables = CompiledTables::compile(spec, ControllerDispatch::Mode::kDense);
  }
  Metrics m;
  m.set("sim.dispatch.compile_us",
        lane.durations("sim.dispatch.compile")->quantile_ns(0.5) / 1e3, "us");

  std::mt19937_64 rng = input_rng(opts, 3);
  for (const Workload w :
       {Workload::kRandom, Workload::kLock, Workload::kProducerConsumer,
        Workload::kFalseSharing, Workload::kStreaming}) {
    std::vector<double> ns_per_event;
    for (int rep = 0; rep < reps; ++rep) {
      SimConfig cfg;
      cfg.n_quads = 4;
      cfg.n_addrs = 8;
      cfg.channel_capacity = 2;
      cfg.transactions_per_node = opts.tiny ? 50 : 300;
      cfg.max_steps = 2'000'000;
      cfg.workload = w;
      cfg.seed = static_cast<unsigned>(rng() % 1'000'000'000u) + 1;
      Machine machine(spec, spec.assignment(asura::kAssignV5Fix), cfg, tables);
      machine.set_memory_latency(3);
      machine.enable_workload();
      SimResult r;
      const std::uint64_t t0 = now_ns();
      {
        Scope s(&lane, run_span(w));
        r = machine.run();
      }
      const double ns = static_cast<double>(now_ns() - t0);
      out.gate(r.healthy(), "sim: machine run unhealthy");
      const auto events = std::max<std::uint64_t>(1, r.counters.events());
      ns_per_event.push_back(ns / static_cast<double>(events));
    }
    m.set("sim.machine.run_ns_per_event." + std::string(workload_name(w)),
          median(ns_per_event), "ns");
  }
  return m;
}

Metrics sweep_census(const Options& opts, const ProtocolSpec& spec,
                     SpanLog::Lane& lane, Outcome& out) {
  const SweepEngine engine(spec);
  return sweep_layers(opts, engine, default_sweep_grid(asura::kAssignV5Fix, 1),
                      lane, out, 0);
}

void run_sim(const Options& opts, Outcome& out, SpanLog* log) {
  HostSpeed host;
  std::unique_ptr<SweepEngine> engine;
  const Protocol p = setup_protocol(opts, out, host, [&engine](Protocol& fresh) {
    engine = std::make_unique<SweepEngine>(*fresh.spec);
  });
  const std::vector<SweepRun> grid = workload_grid(opts);
  if (log != nullptr) {
    out.metrics.update(
        sweep_layers(opts, *engine, grid, log->lane(), out, opts.seconds / 2));
  } else {
    SweepResult first;
    const std::vector<double> ns = sweep_loop(
        *engine, grid, kJobs, opts.seconds, nullptr, out, first, &host);
    report_end_to_end(
        out, per_second(static_cast<double>(first.events * ns.size()), ns),
        median(ns), host);
  }
  reference_gate(*engine, kJobs, out);
}

}  // namespace perfbench
