#pragma once

// The serving front end behind `ccsql serve`: the CLI parses its flags into
// ServeCliOptions and calls run_serve, which stands up a serve::Server over
// the protocol database, drives N concurrent sessions (invariant suite by
// default, or a SQL script), and prints the throughput/latency/cache report.

#include <iosfwd>
#include <string>

#include "protocol/protocol_spec.hpp"

namespace ccsql::apps {

struct ServeCliOptions {
  std::size_t sessions = 8;      // --sessions
  std::size_t iterations = 1;    // --iterations (loops per session)
  std::size_t max_inflight = 0;  // --max-inflight (0 = unlimited)
  std::size_t writer_swaps = 0;  // --writer N: concurrent regenerations
  std::string script_path;       // --script FILE: SELECTs, one per line
  bool verbose = false;          // -v: per-session lines
};

/// Runs the workload and prints the report to `os`.  Returns 0 when every
/// statement behaved (invariants empty / script queries succeeded), 1 on
/// violations, 2 on setup errors (unreadable script).
int run_serve(const ProtocolSpec& spec, const ServeCliOptions& opts,
              std::ostream& os);

}  // namespace ccsql::apps
