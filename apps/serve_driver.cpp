#include "serve_driver.hpp"

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace ccsql::apps {

int run_serve(const ProtocolSpec& spec, const ServeCliOptions& opts,
              std::ostream& os) {
  // Workload: the paper's invariant suite (exists mode), or a SQL script
  // of SELECTs, one per line ('#' comments and blank lines skipped).
  std::vector<std::string> statements;
  bool exists_mode = true;
  if (!opts.script_path.empty()) {
    std::ifstream in(opts.script_path);
    if (!in) {
      os << "serve: cannot open script " << opts.script_path << "\n";
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      statements.push_back(line);
    }
    exists_mode = false;
  } else {
    for (const auto& inv : spec.invariants()) statements.push_back(inv.sql);
  }
  if (statements.empty()) {
    os << "serve: nothing to run\n";
    return 2;
  }

  serve::ServerOptions server_opts;
  server_opts.max_inflight = opts.max_inflight;
  serve::Server server(spec.database(), server_opts);

  serve::DriveOptions drive_opts;
  drive_opts.sessions = opts.sessions;
  drive_opts.iterations = opts.iterations;
  drive_opts.exists_mode = exists_mode;
  drive_opts.writer_swaps = opts.writer_swaps;
  if (opts.writer_swaps > 0) {
    drive_opts.writer_table = spec.controllers().front()->name();
  }

  serve::DriveReport report = serve::drive(server, statements, drive_opts);
  const serve::ServerStats stats = server.stats();

  os << "serve: " << opts.sessions << " sessions x " << opts.iterations
     << " iterations over " << statements.size()
     << (exists_mode ? " invariants" : " queries");
  if (opts.max_inflight > 0) {
    os << " (max-inflight " << opts.max_inflight << ")";
  }
  os << "\n";
  os << "  queries=" << report.queries << " violations=" << report.violations
     << " wall=" << report.wall_us / 1000 << "ms qps=" << std::uint64_t(
            report.qps())
     << " p50=" << report.latency_percentile_us(0.5)
     << "us p95=" << report.latency_percentile_us(0.95) << "us\n";
  os << "  plan_cache: hits=" << stats.cache.hits
     << " misses=" << stats.cache.misses
     << " evictions=" << stats.cache.evictions
     << " invalidations=" << stats.cache.invalidations
     << " entries=" << stats.cache.entries << "\n";
  if (opts.writer_swaps > 0) {
    os << "  writer: swaps=" << report.writer_swaps
       << " generation=" << stats.generation
       << " admission_waits=" << stats.admission_waits << "\n";
  }
  if (opts.verbose) {
    for (const auto& s : report.sessions) {
      os << "  session " << s.id << ": queries=" << s.queries
         << " violations=" << s.violations << " run=" << s.run_us / 1000
         << "ms\n";
    }
  }

  // Make the run observable: serve.* gauges land in the process metrics
  // registry (the --stats page reads them there, and a tracing run
  // flushes them as counter events for trace_summary's serve digest).
  if (obs::Tracer::global().enabled()) {
    server.publish_stats(obs::Tracer::global().metrics());
  }
  return report.violations == 0 ? 0 : 1;
}

}  // namespace ccsql::apps
