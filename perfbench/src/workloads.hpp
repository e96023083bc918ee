#pragma once

// The four workloads of the end-to-end benchmark and the layer probes a
// traced run adds.  See perfbench/README.md for what each measures and
// which end-to-end metric each per-layer metric should move.

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "kit.hpp"
#include "protocol/protocol_spec.hpp"

namespace perfbench {

/// Pool lanes for every pool-using call.  One: see perfbench/README.md.
constexpr std::size_t kJobs = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test size: smaller inputs with their own recorded gates.
  bool tiny = false;
  /// serve's reader threads plus its writer: min(nproc, 4).
  std::size_t serve_threads = 1;
};

/// What one run produced.  `attempted` counts the workload's operations;
/// `failed` counts the ones whose correctness gate failed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few gate failures
  Metrics metrics;
  double setup_s = 0;  // median nominal set-up time (setup_protocol)

  /// Counts one operation; a false `ok` counts it failed and keeps `what`.
  void gate(bool ok, const std::string& what);
};

/// The ASURA protocol with every controller table generated and the
/// catalog built.
struct Protocol {
  std::unique_ptr<ccsql::ProtocolSpec> spec;
};

/// Builds the protocol `reps` times, each time followed by `extra` (the
/// workload's own set-up) inside the timed region, and keeps the last one.
/// Untraced runs report the median nominal CPU time (`host`) as setup_s;
/// traced runs report the median generation time per controller as
/// solver.generate_us.<name>.
Protocol setup_protocol(const Options& opts, Outcome& out, HostSpeed& host,
                        const std::function<void(Protocol&)>& extra = {});

/// Seeded generator for a workload's inputs.
inline std::mt19937_64 input_rng(const Options& opts, std::uint64_t stream) {
  return std::mt19937_64(opts.seed * 0x9E3779B97F4A7C15ull + stream);
}

/// Untraced runs end with the end-to-end metrics every workload reports:
/// its work per second, the median time of one of its operations, set-up
/// time and peak memory (less `host`'s tables).
void report_end_to_end(Outcome& out, double throughput, double op_p50_ns,
                       const HostSpeed& host);

/// `work` done over the summed time of the operations in `op_ns`.
double per_second(double work, const std::vector<double>& op_ns);

/// Runs `op` at least `min_ops` times, and again while the previous call's
/// duration still fits in `seconds`; returns each call's wall time in ns,
/// or its nominal CPU time (HostSpeed::nominal_ns) when `host` is given.
std::vector<double> timed_loop(double seconds, int min_ops,
                               const std::function<void()>& op,
                               HostSpeed* host = nullptr);

/// 100 * (traced - untraced) / untraced, the cost of the benchmark's own
/// spans on one operation.
void report_trace_overhead(Metrics& m, double untraced_ns, double traced_ns);

// ---- workloads --------------------------------------------------------------

void run_flow(const Options& opts, Outcome& out, SpanLog* log);
void run_reach(const Options& opts, Outcome& out, SpanLog* log);
void run_sim(const Options& opts, Outcome& out, SpanLog* log);
void run_serve(const Options& opts, Outcome& out, SpanLog* log);

// ---- layer probes -----------------------------------------------------------
// Each returns per-layer metrics.  The owning workload runs its probe at
// workload size; every other traced run runs it at census size, so each
// traced run reports every per-layer metric with a measured value.

/// Flow::run calls for at least `min_iterations` and `seconds`: solver and
/// invariant figures from each call's FlowReport, and the stages the report
/// does not time (checks.vcg, mapping, sim.validate) from a copy run after
/// each call.
Metrics flow_layers(const Options& opts, const ccsql::ProtocolSpec& spec,
                    SpanLog::Lane& lane, Outcome& out, int min_iterations,
                    double seconds);

/// checks.reach.* on the census explorer configuration.
Metrics reach_census(const Options& opts, const ccsql::ProtocolSpec& spec,
                     SpanLog::Lane& lane, Outcome& out);

/// sim.machine.{snapshot,restore,...}_ns: a bounded breadth-first walk of
/// the explorer's state space that calls the Machine's exploration
/// interface directly.
Metrics machine_probe(const Options& opts, const ccsql::ProtocolSpec& spec,
                      SpanLog::Lane& lane, Outcome& out);

/// sim.dispatch.compile_us and sim.machine.run_ns_per_event.<shape>.
Metrics sim_probe(const Options& opts, const ccsql::ProtocolSpec& spec,
                  SpanLog::Lane& lane, Outcome& out);

/// sim.sweep.run_s and sim.model.* on the default one-seed grid.
Metrics sweep_census(const Options& opts, const ccsql::ProtocolSpec& spec,
                     SpanLog::Lane& lane, Outcome& out);

/// serve.* per-call costs on a quiet single-threaded Server, and
/// plan.fresh_check_ns on a cache-off Server running the suite serially.
Metrics serve_probe(const Options& opts, const ccsql::ProtocolSpec& spec,
                    SpanLog::Lane& lane, Outcome& out);

/// Runs the probes a traced run needs and fills every per-layer metric the
/// workload did not report itself.
void layer_census(const Options& opts, const ccsql::ProtocolSpec& spec,
                  SpanLog& log, Outcome& out);

}  // namespace perfbench
