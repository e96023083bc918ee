// Runs the ASURA protocol dynamically, driven by the generated controller
// tables, and shows the Figure 4 deadlock happening live:
//   * under V5 the scripted wb(B) / readex(A) interleaving wedges with the
//     idone occupying VC2 and the forwarded wb occupying VC4;
//   * under V5fix the same scenario completes;
//   * a randomized multi-quad workload then validates coherence (single
//     writer, fresh fills, directory/cache agreement at quiescence).
//
// Build & run:  ./build/examples/sim_demo
#include <iostream>
#include <memory>

#include "obs/obs.hpp"
#include "protocol/asura/asura.hpp"
#include "sim/machine.hpp"

using namespace ccsql;
using namespace ccsql::sim;

SimResult fig4(const ProtocolSpec& spec, const char* assignment,
               bool trace) {
  if (trace) {
    // Per-event instants stream to stdout through the obs layer.
    obs::Tracer::global().set_sink(std::make_unique<obs::TextSink>(std::cout));
  }
  SimConfig cfg;
  cfg.n_quads = 3;   // quad 2 is home for lines A and B (L != H = R for A)
  cfg.n_addrs = 6;
  cfg.channel_capacity = 1;
  Machine m(spec, spec.assignment(assignment), cfg);
  m.set_memory_latency(16);  // a slow memory exposes the interleaving
  m.set_line(2, "MESI", {2});  // A: modified at the node co-located with home
  m.set_line(5, "MESI", {0});  // B: modified at node 0
  m.script(0, "pwb", 5);       // wb(B)
  m.script(1, "pwr", 2);       // readex(A)
  return m.run();
}

int main() {
  auto spec = asura::make_asura();

  std::cout << "=== Figure 4 scenario under V5 (traced) ===\n";
  SimResult r = fig4(*spec, asura::kAssignV5, /*trace=*/true);
  obs::Tracer::global().set_sink(nullptr);  // untraced from here on
  std::cout << (r.deadlocked ? "DEADLOCK detected; blocked channels:\n"
                             : "unexpectedly completed\n")
            << r.deadlock_report << "\n";

  std::cout << "=== same scenario under V5fix ===\n";
  r = fig4(*spec, asura::kAssignV5Fix, /*trace=*/false);
  std::cout << (r.completed ? "completed" : "FAILED") << " in " << r.steps
            << " steps, " << r.transactions_done << " transactions\n\n";

  std::cout << "=== randomized workload, 4 quads x 150 transactions ===\n";
  SimConfig cfg;
  cfg.n_quads = 4;
  cfg.n_addrs = 8;
  cfg.channel_capacity = 2;
  cfg.transactions_per_node = 150;
  cfg.seed = 2026;
  Machine m(*spec, spec->assignment(asura::kAssignV5Fix), cfg);
  m.set_memory_latency(2);
  m.enable_workload();
  r = m.run();
  std::cout << "completed=" << r.completed << " steps=" << r.steps
            << " transactions=" << r.transactions_done
            << " coherence violations=" << r.errors.size() << "\n";
  for (const auto& e : r.errors) std::cout << "  " << e << "\n";
  return r.errors.empty() && r.completed ? 0 : 1;
}
