// Set-up, end-to-end reporting and the traced run's layer census.

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "protocol/asura/asura.hpp"
#include "workloads.hpp"

namespace perfbench {

void Outcome::gate(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

Protocol setup_protocol(const Options& opts, Outcome& out, HostSpeed& host,
                        const std::function<void(Protocol&)>& extra) {
  // All before measuring: what a workload leaves behind in the heap and
  // the pool would otherwise slow later set-ups by up to a fifth.  Spaced
  // out over about three seconds, because a shared host's speed can swing
  // by more than half from one second to the next, and back-to-back
  // set-ups would all land in the same swing.
  const int reps = opts.tiny ? 2 : 9;
  const auto spacing = std::chrono::milliseconds(opts.tiny ? 0 : 400);
  std::vector<double> seconds;
  Protocol kept;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) std::this_thread::sleep_for(spacing);
    Protocol p;
    seconds.push_back(host.nominal_ns([&] {
      p.spec = ccsql::asura::make_asura();
      (void)p.spec->database();
      if (extra) extra(p);
    }) / 1e9);
    kept = std::move(p);
  }
  out.setup_s = median(seconds);

  if (opts.trace) {
    // Per-controller generation: the solver's share of set-up, timed call
    // by call as the flow regenerates after a spec edit.
    const ccsql::ProtocolSpec& spec = *kept.spec;
    std::map<std::string, std::vector<double>> us;
    for (int rep = 0; rep < reps; ++rep) {
      for (const auto& c : spec.controllers()) {
        c->invalidate();
        const std::uint64_t t0 = now_ns();
        (void)c->generate(&spec.database().functions());
        us[c->name()].push_back(static_cast<double>(now_ns() - t0) / 1e3);
      }
    }
    for (const auto& [name, values] : us) {
      out.metrics.set("solver.generate_us." + name, median(values), "us");
    }
  }
  return kept;
}

std::vector<double> timed_loop(double seconds, int min_ops,
                               const std::function<void()>& op,
                               HostSpeed* host) {
  std::vector<double> ns;
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  // Stops before an operation that would end past the budget.
  double last = 0;
  while (static_cast<int>(ns.size()) < min_ops ||
         static_cast<double>(now_ns() - start) + last <=
             static_cast<double>(budget)) {
    const std::uint64_t t0 = now_ns();
    if (host != nullptr) {
      ns.push_back(host->nominal_ns(op));
    } else {
      op();
      ns.push_back(static_cast<double>(now_ns() - t0));
    }
    last = static_cast<double>(now_ns() - t0);
  }
  return ns;
}

void report_end_to_end(Outcome& out, double throughput, double op_p50_ns,
                       const HostSpeed& host) {
  out.metrics.set("throughput_per_s", throughput, "1/s");
  out.metrics.set("op_p50_ms", op_p50_ns / 1e6, "ms");
  out.metrics.set("setup_s", out.setup_s, "s");
  // The reference tables exist from before set-up to the end of the run,
  // so they add exactly their own size to the peak.
  out.metrics.set("peak_rss_mb", peak_rss_mb() - host.resident_mb(), "MB");
}

double per_second(double work, const std::vector<double>& op_ns) {
  double ns = 0;
  for (const double v : op_ns) ns += v;
  return ns > 0 ? work / (ns / 1e9) : 0.0;
}

void report_trace_overhead(Metrics& m, double untraced_ns,
                           double traced_ns) {
  m.set("obs.trace_overhead_pct",
        untraced_ns > 0 ? 100.0 * (traced_ns - untraced_ns) / untraced_ns
                        : 0.0,
        "%");
}

void layer_census(const Options& opts, const ccsql::ProtocolSpec& spec,
                  SpanLog& log, Outcome& out) {
  SpanLog::Lane& lane = log.lane();
  Metrics census;
  if (opts.workload != "flow") {
    census.fill_from(flow_layers(opts, spec, lane, out, 3, 0));
  }
  if (opts.workload != "reach") {
    census.fill_from(reach_census(opts, spec, lane, out));
  }
  if (opts.workload != "sim") {
    census.fill_from(sweep_census(opts, spec, lane, out));
  }
  census.fill_from(machine_probe(opts, spec, lane, out));
  census.fill_from(sim_probe(opts, spec, lane, out));
  census.fill_from(serve_probe(opts, spec, lane, out));
  out.metrics.fill_from(census);
}

}  // namespace perfbench
