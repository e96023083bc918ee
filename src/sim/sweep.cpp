#include "sim/sweep.hpp"

#include <chrono>
#include <sstream>

#include "core/pool.hpp"
#include "obs/obs.hpp"
#include "protocol/protocol_spec.hpp"

namespace ccsql::sim {

std::string SweepRun::label() const {
  std::ostringstream os;
  os << "quads=" << config.n_quads << " addrs=" << config.n_addrs
     << " cap=" << config.channel_capacity
     << " wl=" << workload_name(config.workload) << " v=" << assignment
     << " seed=" << config.seed;
  return os.str();
}

SweepEngine::SweepEngine(const ProtocolSpec& spec)
    : spec_(&spec),
      tables_(CompiledTables::compile(spec)) {}

SweepResult SweepEngine::run(const std::vector<SweepRun>& grid,
                             std::size_t jobs) const {
  SweepResult out;
  out.runs.resize(grid.size());
  const auto t0 = std::chrono::steady_clock::now();

  CCSQL_SPAN(span, "sim.sweep", "sim");
  span.arg("runs", grid.size()).arg("jobs", jobs);

  core::Pool::global().parallel_tasks(
      grid.size(), jobs, [&](std::size_t i) {
        const SweepRun& cell = grid[i];
        const ChannelAssignment& v = spec_->assignment(cell.assignment);
        Machine m(*spec_, v, cell.config, tables_);
        m.set_memory_latency(cell.memory_latency);
        m.enable_workload();
        out.runs[i] = m.run();
      });

  // Merge on the calling thread, in grid order: deterministic at any jobs.
  for (const SimResult& r : out.runs) {
    out.merged += r.counters;
    out.events += r.counters.events();
    if (r.completed) ++out.completed;
    if (r.deadlocked) ++out.deadlocked;
    if (r.stalled) ++out.stalled;
    if (r.completed && !r.errors.empty()) ++out.unhealthy;
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.events_per_sec =
      out.seconds > 0 ? static_cast<std::uint64_t>(
                            static_cast<double>(out.events) / out.seconds)
                      : 0;

  CCSQL_COUNT("sim.sweep_runs", grid.size());
  CCSQL_COUNT("sim.sweep_deadlocks", out.deadlocked);
  CCSQL_COUNT("sim.sweep_stalled", out.stalled);
  span.arg("events", out.events).arg("deadlocked", out.deadlocked);
  return out;
}

std::vector<SweepRun> default_sweep_grid(const std::string& assignment,
                                         unsigned seeds) {
  std::vector<SweepRun> grid;
  const Workload shapes[] = {Workload::kRandom, Workload::kLock,
                             Workload::kProducerConsumer,
                             Workload::kFalseSharing, Workload::kStreaming};
  for (int quads : {2, 3, 4}) {
    for (int cap : {1, 2, 4}) {
      for (Workload wl : shapes) {
        for (unsigned seed = 1; seed <= seeds; ++seed) {
          SweepRun cell;
          cell.config.n_quads = quads;
          cell.config.n_addrs = quads * 2;
          cell.config.channel_capacity = cap;
          cell.config.transactions_per_node = 60;
          cell.config.workload = wl;
          cell.config.seed = seed;
          cell.assignment = assignment;
          cell.memory_latency = static_cast<int>(seed % 5);
          grid.push_back(std::move(cell));
        }
      }
    }
  }
  return grid;
}

}  // namespace ccsql::sim
