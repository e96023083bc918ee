// Workload `serve`: the traffic the repo's own serving driver sends
// (serve::drive, behind `ccsql serve`, ccsql_serve and bench_serve).
// Reader sessions loop over the ASURA invariant suite in suite order with
// check_empty, while one writer swaps in a copy of D every 500 us, the
// writer period of bench_serve's writer leg.  Every swap moves the catalog to a new
// generation, so cached plans are invalidated and re-planned while the
// readers run.

#include <algorithm>
#include <atomic>
#include <exception>
#include <set>
#include <sstream>
#include <thread>

#include "protocol/asura/asura.hpp"
#include "relational/format.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ccsql;
using serve::Server;

constexpr auto kWriterPeriod = std::chrono::microseconds(500);
constexpr std::size_t kQueries = 30;   // distinct literal queries (probe)
constexpr std::size_t kBindings = 30;  // distinct prepared bindings (probe)

/// The invariant suite and each invariant's verdict on a quiesced copy of
/// the catalog.
struct Suite {
  std::vector<std::string> sql;
  std::vector<bool> empty;
};

Suite quiesced_suite(const ProtocolSpec& spec) {
  const Database oracle(spec.database());
  Suite suite;
  for (const auto& inv : spec.invariants()) {
    suite.sql.push_back(inv.sql);
    suite.empty.push_back(oracle.check_empty(inv.sql));
  }
  return suite;
}

/// One seeded query or prepared statement and its quiesced answer.
struct Statement {
  bool prepared_form = false;
  std::string text;                 // literal or prepared SQL
  Server::Prepared prepared;        // prepared_form
  std::vector<std::string> params;  // prepared_form
  std::string csv;                  // expected rows, canonical order
};

std::string canonical_csv(const Table& t) {
  std::istringstream in(to_csv(t));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

/// Distinct non-NULL values of one column of `table`.
std::vector<std::string> domain(const Database& db, const char* table,
                                const char* column) {
  const Table& t = db.get(table);
  const std::size_t j = t.schema().index_of(column);
  std::set<std::string> values;
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    const Value v = t.row(i)[j];
    if (v != null_value()) values.insert(std::string(v.str()));
  }
  return {values.begin(), values.end()};
}

std::string pick(std::mt19937_64& rng, const std::vector<std::string>& from) {
  return from[rng() % from.size()];
}

std::string quoted(const std::string& v) { return "\"" + v + "\""; }

/// The probe's seeded literal queries and prepared bindings, each answered
/// once by a quiesced copy of the catalog.
std::vector<Statement> make_statements(const Options& opts,
                                       const ProtocolSpec& spec,
                                       const Server& server) {
  const Database oracle = spec.database();
  std::mt19937_64 rng = input_rng(opts, 4);
  const auto inmsg = domain(oracle, "D", "inmsg");
  const auto dirst = domain(oracle, "D", "dirst");
  const auto dirpv = domain(oracle, "D", "dirpv");
  const auto bdirst = domain(oracle, "D", "bdirst");

  std::vector<Statement> out;
  for (std::size_t i = 0; i < kQueries; ++i) {
    Statement s;
    switch (i % 3) {
      case 0:
        s.text = "select locmsg, remmsg, memmsg from D where inmsg = " +
                 quoted(pick(rng, inmsg)) +
                 " and dirst = " + quoted(pick(rng, dirst));
        break;
      case 1:
        s.text = "select distinct nxtdirst, nxtbdirst from D where bdirst = " +
                 quoted(pick(rng, bdirst));
        break;
      default:
        s.text =
            "select a.memmsg, b.inmsg from D a, M b where a.memmsg = b.inmsg "
            "and a.dirst = " + quoted(pick(rng, dirst));
    }
    s.csv = canonical_csv(oracle.query(s.text).rows);
    out.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < kBindings; ++i) {
    Statement s;
    s.prepared_form = true;
    std::string literal;
    switch (i % 3) {
      case 0: {
        s.text =
            "select dirst, dirpv from D where dirst = $1 and not dirpv = $2";
        s.params = {pick(rng, dirst), pick(rng, dirpv)};
        literal = "select dirst, dirpv from D where dirst = " +
                  quoted(s.params[0]) + " and not dirpv = " +
                  quoted(s.params[1]);
        break;
      }
      case 1: {
        s.text = "select inmsg, locmsg, nxtdirst from D where inmsg = $1";
        s.params = {pick(rng, inmsg)};
        literal = "select inmsg, locmsg, nxtdirst from D where inmsg = " +
                  quoted(s.params[0]);
        break;
      }
      default: {
        s.text =
            "select a.inmsg, b.inmsg from D a, M b where a.memmsg = b.inmsg "
            "and a.dirst = $1";
        s.params = {pick(rng, dirst)};
        literal =
            "select a.inmsg, b.inmsg from D a, M b where a.memmsg = b.inmsg "
            "and a.dirst = " + quoted(s.params[0]);
      }
    }
    s.prepared = server.prepare(s.text);
    s.csv = canonical_csv(oracle.query(literal).rows);
    out.push_back(std::move(s));
  }
  return out;
}

/// The writer's mutation, as serve::drive's writer makes it: a copy of the
/// current D put back (same rows, new storage, new generation).
void swap_directory(Server& server) {
  Table copy = server.snapshot().catalog().get(asura::kDirectory);
  server.update([&copy](Database& db) {
    db.put(asura::kDirectory, std::move(copy));
  });
}

struct PhaseResult {
  std::vector<double> pass_ns;  // one suite pass by one reader
  std::uint64_t reads = 0;
  std::uint64_t wrong = 0;      // verdicts that differ from the oracle
  Histogram updates;            // per-swap latency
  double wall_s = 0;
};

/// Readers and the writer against `server` for `seconds`.  Reader t starts
/// its passes at the seeded invariant `start[t]`.  With a log, every read
/// and swap is also a span on its thread's lane.
PhaseResult serve_phase(Server& server, const Suite& suite,
                        const std::vector<std::size_t>& start, double seconds,
                        SpanLog* log) {
  const std::size_t readers = start.size();
  const std::size_t n = suite.sql.size();
  std::atomic<bool> go{false}, stop{false};
  std::vector<std::vector<double>> pass_ns(readers);
  std::vector<std::uint64_t> reads(readers, 0), wrong(readers, 0);
  Histogram update_hist;
  std::vector<std::exception_ptr> errors(readers + 1);
  std::vector<SpanLog::Lane*> lanes(readers + 1, nullptr);
  std::uint64_t wall_ns = 0;
  if (log != nullptr) {
    for (auto& lane : lanes) lane = &log->lane();
  }
  {
    // Declared after the threads, so it runs first on the way out (an
    // exception included) and every thread sees stop before it is joined.
    struct StopOnExit {
      std::atomic<bool>& stop;
      ~StopOnExit() { stop = true; }
    };
    std::vector<std::jthread> threads;
    const StopOnExit stop_on_exit{stop};
    for (std::size_t t = 0; t < readers; ++t) {
      threads.emplace_back([&, t] {
        try {
          while (!go.load(std::memory_order_acquire) && !stop.load()) {
            std::this_thread::yield();
          }
          // A pass cut short by the stop is counted but not timed.
          while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t t0 = now_ns();
            std::size_t k = 0;
            for (; k < n && !stop.load(std::memory_order_relaxed); ++k) {
              const std::size_t i = (start[t] + k) % n;
              bool empty = false;
              {
                Scope span(lanes[t], "serve.check_empty");
                empty = server.check_empty(suite.sql[i]);
              }
              if (empty != suite.empty[i]) ++wrong[t];
            }
            reads[t] += k;
            if (k == n) {
              pass_ns[t].push_back(static_cast<double>(now_ns() - t0));
            }
          }
        } catch (...) {
          errors[t] = std::current_exception();
          stop = true;
        }
      });
    }
    threads.emplace_back([&] {
      try {
        while (!go.load(std::memory_order_acquire) && !stop.load()) {
          std::this_thread::yield();
        }
        // A fixed schedule rather than serve::drive's sleep after each
        // swap: a busy host wakes the writer late, and the swap count (so
        // the share of reads that re-plan) would follow the host's load.
        auto next = std::chrono::steady_clock::now();
        while (!stop.load(std::memory_order_relaxed)) {
          next += kWriterPeriod;
          std::this_thread::sleep_until(next);
          const std::uint64_t t0 = now_ns();
          {
            Scope span(lanes[readers], "serve.update");
            swap_directory(server);
          }
          update_hist.record(now_ns() - t0);
        }
      } catch (...) {
        errors[readers] = std::current_exception();
        stop = true;
      }
    });
    const std::uint64_t begin = now_ns();
    go.store(true, std::memory_order_release);
    while (!stop.load() &&
           static_cast<double>(now_ns() - begin) < seconds * 1e9) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop = true;
    wall_ns = now_ns() - begin;
  }  // joins every thread
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  PhaseResult r;
  for (std::size_t t = 0; t < readers; ++t) {
    r.pass_ns.insert(r.pass_ns.end(), pass_ns[t].begin(), pass_ns[t].end());
    r.reads += reads[t];
    r.wrong += wrong[t];
  }
  r.updates = update_hist;
  r.wall_s = static_cast<double>(wall_ns) / 1e9;
  return r;
}

void gate_phase(const PhaseResult& r, Outcome& out) {
  out.attempted += r.reads + r.updates.count();
  out.failed += r.wrong;
  if (r.wrong > 0 && out.errors.size() < 20) {
    out.errors.push_back("serve: " + std::to_string(r.wrong) +
                         " verdicts differ from the quiesced oracle");
  }
  if (r.pass_ns.empty()) out.gate(false, "serve: no reader finished a pass");
}

void report_cache(Metrics& m, const serve::ServerStats& before,
                  const serve::ServerStats& after) {
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  m.set("serve.plan_cache.hit_ratio_pct",
        hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0, "%");
  m.set("serve.plan_cache.invalidations",
        static_cast<double>(after.cache.invalidations -
                            before.cache.invalidations),
        "count");
}

}  // namespace

Metrics serve_probe(const Options& opts, const ProtocolSpec& spec,
                    SpanLog::Lane& lane, Outcome& out) {
  Server server(spec.database());
  const Suite suite = quiesced_suite(spec);
  const std::vector<Statement> statements =
      make_statements(opts, spec, server);
  const int rounds = opts.tiny ? 1 : 3;

  // Each round: one swap, then every invariant twice (a cold lookup right
  // after the generation change, then a warm one), then every query and
  // prepared binding, answers compared row by row with the oracle.
  const serve::ServerStats before = server.stats();
  Histogram miss, hit, updates;
  for (int round = 0; round < rounds; ++round) {
    std::uint64_t t0 = now_ns();
    {
      Scope s(&lane, "serve.update");
      swap_directory(server);
    }
    updates.record(now_ns() - t0);
    for (std::size_t i = 0; i < suite.sql.size(); ++i) {
      t0 = now_ns();
      bool ok = server.check_empty(suite.sql[i]) == suite.empty[i];
      miss.record(now_ns() - t0);
      t0 = now_ns();
      ok = server.check_empty(suite.sql[i]) == suite.empty[i] && ok;
      hit.record(now_ns() - t0);
      out.gate(ok, "serve: probe verdict differs from the quiesced oracle");
    }
    for (const Statement& st : statements) {
      QueryResult r;
      if (st.prepared_form) {
        Scope s(&lane, "serve.execute");
        r = server.execute(st.prepared, st.params);
      } else {
        Scope s(&lane, "serve.query");
        r = server.query(st.text);
      }
      out.gate(canonical_csv(r.rows) == st.csv,
               "serve: probe rows differ from the quiesced oracle");
    }
  }
  const serve::ServerStats after = server.stats();
  Histogram snapshot;
  for (int i = 0; i < 1000 * rounds; ++i) {
    const std::uint64_t t0 = now_ns();
    const Snapshot snap = server.snapshot();
    snapshot.record(now_ns() - t0);
  }

  // plan.fresh_check_ns: the suite, serially, on a cache-off Server.
  serve::ServerOptions fresh_opts;
  fresh_opts.use_plan_cache = false;
  Server fresh(spec.database(), fresh_opts);
  Histogram fresh_check;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < suite.sql.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      const bool ok = fresh.check_empty(suite.sql[i]) == suite.empty[i];
      fresh_check.record(now_ns() - t0);
      out.gate(ok, "serve: cache-off verdict differs from the quiesced oracle");
    }
  }

  Metrics m;
  m.set("serve.check_empty_hit_ns", hit.quantile_ns(0.5), "ns");
  m.set("serve.check_empty_miss_ns", miss.quantile_ns(0.5), "ns");
  m.set("serve.snapshot_ns", snapshot.quantile_ns(0.5), "ns");
  m.set("serve.query_ns", lane.durations("serve.query")->quantile_ns(0.5),
        "ns");
  m.set("serve.execute_ns", lane.durations("serve.execute")->quantile_ns(0.5),
        "ns");
  m.set("serve.update_us", updates.quantile_ns(0.5) / 1e3, "us");
  report_cache(m, before, after);
  m.set("plan.fresh_check_ns", fresh_check.quantile_ns(0.5), "ns");
  return m;
}

void run_serve(const Options& opts, Outcome& out, SpanLog* log) {
  HostSpeed host;
  std::unique_ptr<Server> server;
  const Protocol p = setup_protocol(opts, out, host, [&server](Protocol& fresh) {
    server = std::make_unique<Server>(fresh.spec->database());
  });
  const Suite suite = quiesced_suite(*p.spec);
  for (const bool empty : suite.empty) {
    out.gate(empty, "serve: invariant violated on the quiesced oracle");
  }
  // One writer plus readers on the remaining lanes, each starting its
  // passes at a seeded invariant.
  const std::size_t readers =
      std::max<std::size_t>(1, opts.serve_threads - 1);
  std::mt19937_64 rng = input_rng(opts, 5);
  std::vector<std::size_t> start;
  for (std::size_t t = 0; t < readers; ++t) {
    start.push_back(rng() % suite.sql.size());
  }

  if (log == nullptr) {
    const PhaseResult r =
        serve_phase(*server, suite, start, opts.seconds, nullptr);
    gate_phase(r, out);
    report_end_to_end(out, static_cast<double>(r.reads) / r.wall_s,
                      median(r.pass_ns), host);
    return;
  }
  const PhaseResult untraced =
      serve_phase(*server, suite, start, opts.seconds / 2, nullptr);
  gate_phase(untraced, out);
  const serve::ServerStats before = server->stats();
  const PhaseResult traced =
      serve_phase(*server, suite, start, opts.seconds / 2, log);
  gate_phase(traced, out);
  const serve::ServerStats after = server->stats();

  Metrics m;
  m.set("serve.update_us", traced.updates.quantile_ns(0.5) / 1e3, "us");
  report_cache(m, before, after);
  report_trace_overhead(m, median(untraced.pass_ns), median(traced.pass_ns));
  out.metrics.update(m);
}

}  // namespace perfbench
