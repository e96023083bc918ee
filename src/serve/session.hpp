#pragma once

// Multi-session workload driver for the serving layer: runs N client
// sessions as pool tasks over one serve::Server (each session = the
// paper's run-the-invariant-suite loop, or an arbitrary statement list),
// optionally alongside a writer thread that regenerates a table on a fixed
// cadence.  This is the engine behind the `ccsql serve` subcommand and
// bench_serve.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace ccsql::serve {

struct DriveOptions {
  /// Concurrent client sessions (each is one pool task).
  std::size_t sessions = 8;
  /// Times each session loops over the statement list.
  std::size_t iterations = 1;
  /// Run statements as invariants (check_empty) rather than SELECTs.
  bool check_empty = true;
  /// Pool lanes for the session fan-out; 0 = the process default.
  std::size_t jobs = 0;
  /// Concurrent writer: perform exactly this many identical-content
  /// regenerations of `writer_table`, alongside the sessions (0 = no
  /// writer), the first once a session has answered a statement;
  /// drive() returns after the last one.  Each swap rebuilds the
  /// table's storage and bumps the database generation, so reader results
  /// must be unaffected byte-for-byte.
  std::size_t writer_swaps = 0;
  std::string writer_table;
  /// Pause between writer swaps.
  std::size_t writer_period_us = 200;
};

struct SessionReport {
  std::size_t id = 0;
  std::uint64_t queries = 0;
  /// Non-empty invariants (check_empty) / total rows returned (SELECTs).
  std::uint64_t violations = 0;
  std::uint64_t run_us = 0;
  /// Per-query latencies, microseconds, in issue order.
  std::vector<std::uint32_t> latencies_us;
};

struct DriveReport {
  std::vector<SessionReport> sessions;
  std::uint64_t wall_us = 0;
  std::uint64_t queries = 0;
  std::uint64_t violations = 0;
  std::uint64_t writer_swaps = 0;
  /// All sessions' latencies, sorted ascending (percentile-ready).
  std::vector<std::uint32_t> latencies_us;

  [[nodiscard]] double qps() const noexcept {
    return wall_us != 0 ? static_cast<double>(queries) * 1e6 /
                              static_cast<double>(wall_us)
                        : 0.0;
  }
  /// q in [0,1]; nearest-rank percentile of the merged latencies.
  [[nodiscard]] std::uint32_t latency_percentile_us(double q) const;
};

/// Runs `statements` through `server` from opts.sessions concurrent
/// sessions and aggregates the result.  Statement order within a session
/// is fixed (suite order), so verdict sequences are comparable across
/// runs regardless of interleaving.  A statement's error is rethrown once
/// the writer has finished.
[[nodiscard]] DriveReport drive(Server& server,
                                const std::vector<std::string>& statements,
                                const DriveOptions& opts);

}  // namespace ccsql::serve
