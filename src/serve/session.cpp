#include "serve/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "core/pool.hpp"
#include "obs/obs.hpp"

namespace ccsql::serve {
namespace {

std::uint64_t micros_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// One session: loops the statement list, recording per-query latency, and
/// raises `answered` once its first statement is answered.
void run_session(Server& server, const std::vector<std::string>& statements,
                 const DriveOptions& opts, SessionReport& report,
                 std::atomic<bool>& answered) {
  const auto session_t0 = std::chrono::steady_clock::now();
  report.latencies_us.reserve(opts.iterations * statements.size());
  for (std::size_t iter = 0; iter < opts.iterations; ++iter) {
    for (const std::string& sql : statements) {
      const auto t0 = std::chrono::steady_clock::now();
      if (opts.check_empty) {
        if (!server.check_empty(sql)) ++report.violations;
      } else {
        report.violations += server.query(sql).row_count();
      }
      if (report.queries == 0) answered.store(true, std::memory_order_release);
      const std::uint64_t us = micros_since(t0);
      report.latencies_us.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(us, UINT32_MAX)));
      ++report.queries;
      CCSQL_OBSERVE("serve.query_us", static_cast<double>(us));
    }
  }
  report.run_us = micros_since(session_t0);
}

}  // namespace

std::uint32_t DriveReport::latency_percentile_us(double q) const {
  if (latencies_us.empty()) return 0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(latencies_us.size())));
  return latencies_us[rank == 0 ? 0 : rank - 1];
}

DriveReport drive(Server& server, const std::vector<std::string>& statements,
                  const DriveOptions& opts) {
  CCSQL_SPAN(span, "serve.drive", "serve");
  DriveReport out;
  out.sessions.resize(opts.sessions);
  for (std::size_t i = 0; i < opts.sessions; ++i) out.sessions[i].id = i;

  // Writer thread: identical-content table regenerations on a cadence.
  // Each swap deep-copies the current rows into fresh storage and re-puts
  // the table — a real regeneration (new buffers, new generation), with
  // reader-visible contents unchanged so results stay byte-identical.  The
  // cadence starts once a session has answered a statement (or every
  // session has ended), so swaps land among cached plans, not before the
  // first one is built however slowly the sessions start.
  std::atomic<bool> answered{false};
  std::thread writer;
  if (opts.writer_swaps > 0 && !opts.writer_table.empty()) {
    writer = std::thread([&server, &opts, &out, &answered] {
      while (!answered.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(opts.writer_period_us));
      }
      for (std::size_t i = 0; i < opts.writer_swaps; ++i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(opts.writer_period_us));
        Table copy = server.snapshot().catalog().get(opts.writer_table);
        server.update([&opts, &copy](Database& db) {
          db.put(opts.writer_table, std::move(copy));
        });
        ++out.writer_swaps;
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t lanes =
      opts.jobs != 0 ? opts.jobs : core::Pool::default_jobs();
  try {
    core::Pool::global().parallel_tasks(
        opts.sessions, lanes,
        [&server, &statements, &opts, &out, &answered](std::size_t i) {
          run_session(server, statements, opts, out.sessions[i], answered);
        });
  } catch (...) {
    // A failed statement ends the drive; an unjoined writer would abort.
    answered.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();
    throw;
  }
  out.wall_us = micros_since(t0);
  answered.store(true, std::memory_order_release);
  // The writer always completes its swaps, even when the sessions finish
  // first.
  if (writer.joinable()) writer.join();

  for (const SessionReport& s : out.sessions) {
    out.queries += s.queries;
    out.violations += s.violations;
    out.latencies_us.insert(out.latencies_us.end(), s.latencies_us.begin(),
                            s.latencies_us.end());
  }
  std::sort(out.latencies_us.begin(), out.latencies_us.end());
  span.arg("sessions", static_cast<std::uint64_t>(opts.sessions));
  span.arg("queries", out.queries);
  CCSQL_COUNT("serve.drive_queries", out.queries);
  return out;
}

}  // namespace ccsql::serve
