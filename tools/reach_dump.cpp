// Diagnostic: exhaustive exploration of small configurations.
//
//   reach_dump [QUADS [ADDRS [OPS]]] [--jobs N] [--symmetry]
//              [--max-states N] [--first-deadlock] [--trace] [--classify]
//
// Runs both channel assignments (V5 and the fixed V5) through the parallel
// explorer, prints the aggregate results, the deadlock witness trace when one exists (--trace
// prints every action), and with --classify labels each VCG cycle
// reachable / unreachable / budget against the explored state space.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "checks/reach.hpp"
#include "checks/vcg.hpp"
#include "core/pool.hpp"
#include "protocol/asura/asura.hpp"

int main(int argc, char** argv) {
  using namespace ccsql;
  auto spec = asura::make_asura();

  ReachParallelConfig cfg;
  bool classify = false;
  bool print_trace = false;
  std::vector<int> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const auto jobs = static_cast<std::size_t>(atoi(argv[++i]));
      cfg.jobs = jobs;
      core::Pool::set_default_jobs(jobs == 0 ? 1 : jobs);
    } else if (std::strcmp(argv[i], "--symmetry") == 0) {
      cfg.symmetry = true;
    } else if (std::strcmp(argv[i], "--classify") == 0) {
      classify = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      print_trace = true;
    } else if (std::strcmp(argv[i], "--first-deadlock") == 0) {
      cfg.stop_at_first_deadlock = true;
    } else if (std::strcmp(argv[i], "--max-states") == 0 && i + 1 < argc) {
      cfg.max_states = static_cast<std::uint64_t>(atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--only-ops") == 0 && i + 1 < argc) {
      // Comma-separated op names, e.g. --only-ops prd,patomic
      for (const char* tok = std::strtok(argv[++i], ","); tok;
           tok = std::strtok(nullptr, ",")) {
        cfg.inject_ops.emplace_back(tok);
      }
    } else if (std::strcmp(argv[i], "--node-ops") == 0 && i + 1 < argc) {
      // Comma-separated per-node budgets, e.g. --node-ops 2,1
      for (const char* tok = std::strtok(argv[++i], ","); tok;
           tok = std::strtok(nullptr, ",")) {
        cfg.ops_by_node.push_back(atoi(tok));
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: reach_dump [QUADS [ADDRS [OPS]]] [--jobs N] "
                   "[--symmetry] [--max-states N] "
                   "[--first-deadlock] [--trace] [--classify] "
                   "[--only-ops A,B] [--node-ops N,M]\n");
      return 2;
    } else {
      positional.push_back(atoi(argv[i]));
    }
  }
  cfg.n_quads = positional.size() > 0 ? positional[0] : 2;
  cfg.n_addrs = positional.size() > 1 ? positional[1] : 1;
  cfg.ops_per_node = positional.size() > 2 ? positional[2] : 2;

  for (const char* a : {asura::kAssignV5, asura::kAssignV5Fix}) {
    ReachParallelResult r =
        explore_parallel(*spec, spec->assignment(a), cfg);
    std::printf(
        "%s: states=%llu transitions=%llu complete=%d deadlocks=%llu "
        "violations=%zu waves=%llu dedup=%llu canon=%llu %.2fs "
        "(%.0f states/s, peak %.1f MiB tracked)\n",
        a, (unsigned long long)r.states, (unsigned long long)r.transitions,
        r.complete, (unsigned long long)r.deadlock_states,
        r.violations.size(), (unsigned long long)r.waves,
        (unsigned long long)r.dedup_hits, (unsigned long long)r.canon_group,
        r.seconds, r.states / (r.seconds > 0 ? r.seconds : 1),
        static_cast<double>(r.peak_bytes) / (1 << 20));
    for (auto& viol : r.violations) std::printf("  %s\n", viol.c_str());
    if (r.deadlock_states) {
      std::printf("%s", r.deadlock_example.c_str());
      std::printf("witness: %zu actions to the first deadlock\n",
                  r.deadlock_trace.size());
      if (print_trace) {
        for (const auto& act : r.deadlock_trace) {
          std::printf("  %s\n", act.to_string().c_str());
        }
      }
    }

    if (classify) {
      std::vector<ControllerTableRef> refs;
      for (const auto& c : spec->controllers()) {
        refs.push_back(ControllerTableRef::from_spec(
            *c, spec->database().get(c->name())));
      }
      DeadlockAnalysis analysis(refs, spec->assignment(a));
      const auto classifications = classify_cycles(
          *spec, spec->assignment(a), analysis.cycles(), cfg);
      std::printf("%s cycle classification:\n%s", a,
                  format_classification(classifications).c_str());
    }
  }
  return 0;
}
