// ccsql — command-line driver for the table-driven protocol methodology.
//
//   ccsql COMMAND [ARGS] [FLAGS]
//
// Commands: tables, sql, explain, invariants, deadlock, map, codegen, sim,
// sweep, reach, lint, serve, flow.  `ccsql` with no arguments prints each
// command with the flags it reads (kCommands and kFlags below).
//
// Global flags (any command):
//   --trace FILE               write a trace (format from extension)
//   --trace-format FMT         text | jsonl | chrome
//   --metrics                  collect + print the metrics summary
//   --stats                    end-of-run one-page summary: top counters,
//                              histogram p50/p95/max, pool utilization,
//                              memory accounting (no trace file needed)
//   --jobs N                   parallel lanes for query execution, the
//                              invariant suite, VCG composition, the
//                              explorer and the sweep
//                              (CCSQL_JOBS=N does the same; default:
//                              hardware concurrency).  Results are
//                              identical at any N.
// An unknown flag, a flag the command does not read, an integer flag
// without a whole int after it, --trace-format without --trace, or a sim
// flag beside --fig4 (which runs a fixed machine) is a usage error (exit 2).
// CCSQL_TRACE / CCSQL_TRACE_FORMAT / CCSQL_METRICS=1 / CCSQL_JOBS in the
// environment do the same.
//
// All commands operate on the built-in ASURA reconstruction.
#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ccsql.hpp"
#include "checks/lint.hpp"
#include "checks/reach.hpp"
#include "core/flow.hpp"
#include "core/pool.hpp"
#include "mapping/codegen.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "protocol/asura/asura.hpp"
#include "serve/session.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace ccsql;

/// Every flag the CLI reads, the value it takes, and the commands that read
/// it (global flags name none).  main() rejects any flag not listed here, a
/// flag the command does not read, and an integer flag not followed by a
/// whole int.  Every integer the CLI takes is a count or a seed, so a sign
/// is rejected; a kCount of 0 would make a run that does nothing and
/// certifies nothing, so it is rejected too.
enum class FlagKind { kSwitch, kInt, kCount, kString };
struct FlagSpec {
  std::string_view name;
  FlagKind kind;
  std::string_view value;  // the value's name in usage()
  std::array<std::string_view, 2> commands;  // none for a global flag
};
constexpr auto kSwitch = FlagKind::kSwitch;
constexpr auto kInt = FlagKind::kInt;
constexpr auto kCount = FlagKind::kCount;
constexpr auto kString = FlagKind::kString;
constexpr FlagSpec kFlags[] = {
    {"--csv", kSwitch, "", {"tables"}},
    {"--analyze", kSwitch, "", {"explain"}},
    {"-v", kSwitch, "", {"invariants", "serve"}},
    {"--casez", kSwitch, "", {"codegen"}},
    {"--fig4", kSwitch, "", {"sim"}},
    {"--quads", kInt, "N", {"sim", "reach"}},
    {"--addrs", kInt, "N", {"sim", "reach"}},
    {"--capacity", kInt, "N", {"sim"}},
    {"--txns", kCount, "N", {"sim"}},
    {"--seed", kInt, "N", {"sim"}},
    {"--latency", kInt, "N", {"sim"}},
    {"--workload", kString, "NAME", {"sim"}},
    {"--seeds", kCount, "N", {"sweep"}},
    {"--ops", kInt, "N", {"reach"}},
    {"--symmetry", kSwitch, "", {"reach"}},
    {"--classify", kSwitch, "", {"reach"}},
    {"--witness", kSwitch, "", {"reach"}},
    {"--max-states", kCount, "N", {"reach"}},
    {"--max-bytes", kString, "N", {"reach"}},
    {"--first-deadlock", kSwitch, "", {"reach"}},
    {"--only-ops", kString, "A,B", {"reach"}},
    {"--node-ops", kString, "N,M", {"reach"}},
    {"--sessions", kCount, "N", {"serve"}},
    {"--iterations", kCount, "N", {"serve"}},
    {"--writer", kInt, "N", {"serve"}},
    {"--script", kString, "FILE", {"serve"}},
    {"--trace", kString, "FILE", {}},
    {"--trace-format", kString, "text|jsonl|chrome", {}},
    {"--metrics", kSwitch, "", {}},
    {"--stats", kSwitch, "", {}},
    {"--jobs", kCount, "N", {}},
};

bool is_global(const FlagSpec& f) { return f.commands[0].empty(); }

/// True iff `command` reads flag `f` (every command reads a global flag).
bool reads(const FlagSpec& f, std::string_view command) {
  return is_global(f) || f.commands[0] == command || f.commands[1] == command;
}

const FlagSpec* find_flag(std::string_view name) {
  for (const FlagSpec& f : kFlags) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

/// The whole of `text` as an int, or nullopt.
std::optional<int> parse_int(std::string_view text) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

struct Args {
  struct Flag {
    std::string_view name;
    std::string text;  // the value of a string flag
    int number = 0;    // the value of an integer flag
  };
  std::vector<std::string> positional;
  std::vector<Flag> flags;

  [[nodiscard]] const Flag* find(std::string_view f) const {
    for (const auto& x : flags) {
      if (x.name == f) return &x;
    }
    return nullptr;
  }
  [[nodiscard]] bool has(std::string_view f) const {
    return find(f) != nullptr;
  }
  [[nodiscard]] int value_of(std::string_view f, int fallback) const {
    const Flag* x = find(f);
    return x != nullptr ? x->number : fallback;
  }
  [[nodiscard]] std::string str_value_of(std::string_view f) const {
    const Flag* x = find(f);
    return x != nullptr ? x->text : std::string();
  }
};

int usage();

int cmd_tables(const ProtocolSpec& spec, const Args& args) {
  const Database& db = spec.database();
  if (!args.positional.empty()) {
    const Table& t = db.get(args.positional[0]);
    std::cout << (args.has("--csv") ? to_csv(t) : to_ascii(t));
    return 0;
  }
  for (const auto& c : spec.controllers()) {
    const Table& t = db.get(c->name());
    std::cout << c->name() << ": " << t.row_count() << " rows x "
              << t.column_count() << " cols\n";
  }
  std::cout << "Messages: " << spec.messages().size() << " types\n";
  return 0;
}

int cmd_sql(const ProtocolSpec& spec, const Args& args) {
  if (args.positional.empty()) return usage();
  // A private mutable copy of the session so CREATE/INSERT/DROP work.
  Database db = spec.database();
  std::stringstream statements(args.positional[0]);
  std::string stmt;
  while (std::getline(statements, stmt, ';')) {
    if (stmt.find_first_not_of(" \t\n") == std::string::npos) continue;
    const Table result = db.execute(stmt);
    // A CREATE TABLE AS reports its table, not the rows it stored.
    const Statement parsed = parse_statement(stmt);
    if (parsed.kind == Statement::Kind::kCreateTableAs) {
      std::cout << parsed.table << ": " << result.row_count() << " rows\n";
    } else if (result.column_count() > 0) {
      std::cout << to_ascii(result);
    }
  }
  return 0;
}

int cmd_explain(const ProtocolSpec& spec, const Args& args) {
  if (args.positional.empty()) return usage();
  const Database& db = spec.database();
  std::cout << (args.has("--analyze") ? db.explain_analyze(args.positional[0])
                                      : db.explain(args.positional[0]));
  return 0;
}

int cmd_invariants(const ProtocolSpec& spec, const Args& args) {
  InvariantChecker checker(spec.database());
  auto results = checker.check_all(spec.invariants());
  std::cout << InvariantChecker::report(results, args.has("-v"));
  return InvariantChecker::all_hold(results) ? 0 : 1;
}

int cmd_deadlock(const ProtocolSpec& spec, const Args& args) {
  std::vector<ControllerTableRef> refs;
  for (const auto& c : spec.controllers()) {
    refs.push_back(
        ControllerTableRef::from_spec(*c, spec.database().get(c->name())));
  }
  // A named assignment must exist: skipping every assignment would report
  // no cycles, a false certificate of deadlock freedom.
  std::vector<const ChannelAssignment*> chosen;
  if (!args.positional.empty()) {
    chosen.push_back(&spec.assignment(args.positional[0]));
  } else {
    for (const auto& a : spec.assignments()) chosen.push_back(a.get());
  }
  bool any_cycles = false;
  for (const ChannelAssignment* a : chosen) {
    DeadlockAnalysis analysis(refs, *a);
    std::cout << "=== assignment " << a->name() << " ===\n"
              << analysis.report() << "\n";
    any_cycles |= !analysis.deadlock_free();
  }
  return any_cycles ? 1 : 0;
}

int cmd_map(const ProtocolSpec& spec, const Args&) {
  auto report = mapping::verify_directory_mapping(spec);
  std::cout << "ED: " << report.ed_rows << " rows x " << report.ed_cols
            << " cols\n";
  for (const auto& [name, rows] : report.table_rows) {
    std::cout << "  " << name << ": " << rows << " rows\n";
  }
  std::cout << "ED reconstructed: " << report.ed_reconstructed
            << "\ndebugged table recovered: " << report.base_recovered
            << "\ncontainment check: " << report.contains_debugged << "\n";
  return report.ok() ? 0 : 1;
}

int cmd_codegen(const ProtocolSpec& spec, const Args& args) {
  if (args.positional.empty()) return usage();
  ControllerSpec ed_spec = mapping::make_extended_directory(spec);
  const Table& ed = ed_spec.generate(&spec.database().functions());
  auto parts = mapping::partition_directory(ed, spec.database().functions());
  for (const auto& p : parts) {
    if (p.name != args.positional[0]) continue;
    const auto dialect = args.has("--casez") ? mapping::CodeDialect::kCasez
                                             : mapping::CodeDialect::kCxx;
    std::cout << mapping::generate_value_declarations(p.table, p.name)
              << "\n"
              << mapping::generate_code(p.table, p.name, dialect);
    return 0;
  }
  std::cerr << "unknown implementation table: " << args.positional[0]
            << " (try Request_remmsg, Response_dir, ...)\n";
  return 2;
}

int cmd_sim(const ProtocolSpec& spec, const Args& args) {
  const std::string assignment =
      args.positional.empty() ? asura::kAssignV5Fix : args.positional[0];
  sim::SimConfig cfg;
  cfg.n_quads = args.value_of("--quads", 4);
  cfg.n_addrs = args.value_of("--addrs", cfg.n_quads * 2);
  cfg.channel_capacity = args.value_of("--capacity", 2);
  cfg.transactions_per_node = args.value_of("--txns", 100);
  cfg.seed = static_cast<unsigned>(args.value_of("--seed", 1));
  if (const std::string wl = args.str_value_of("--workload");
      !wl.empty()) {
    const auto parsed = sim::parse_workload(wl);
    if (!parsed) {
      std::cerr << "unknown workload '" << wl
                << "' (random, lock, producer-consumer, false-sharing, "
                   "streaming)\n";
      return 2;
    }
    cfg.workload = *parsed;
  }

  if (args.has("--fig4")) {
    // The Figure 4 scenario fixes its own machine: refuse the sim flags it
    // would ignore rather than print a run they did not shape.
    for (const Args::Flag& f : args.flags) {
      if (f.name != "--fig4" && !is_global(*find_flag(f.name))) {
        std::cerr << "error: sim --fig4 does not take " << f.name << "\n";
        return 2;
      }
    }
    cfg.n_quads = 3;
    cfg.n_addrs = 6;
    cfg.channel_capacity = 1;
    sim::Machine m(spec, spec.assignment(assignment), cfg);
    m.set_memory_latency(16);
    m.set_line(2, "MESI", {2});
    m.set_line(5, "MESI", {0});
    m.script(0, "pwb", 5);
    m.script(1, "pwr", 2);
    sim::SimResult r = m.run();
    std::cout << "fig4 under " << assignment << ": "
              << (r.deadlocked ? "DEADLOCK" : (r.completed ? "completed"
                                                           : "stalled"))
              << " in " << r.steps << " steps\n"
              << r.deadlock_report;
    return r.deadlocked ? 1 : 0;
  }

  sim::Machine m(spec, spec.assignment(assignment), cfg);
  m.set_memory_latency(args.value_of("--latency", 2));
  m.enable_workload();
  sim::SimResult r = m.run();
  std::cout << "completed=" << r.completed << " deadlocked=" << r.deadlocked
            << " steps=" << r.steps << " transactions="
            << r.transactions_done << " errors=" << r.errors.size()
            << " workload=" << sim::workload_name(cfg.workload)
            << " events/sec=" << r.events_per_sec() << "\n";
  for (const auto& e : r.errors) std::cout << "  " << e << "\n";
  if (r.deadlocked) std::cout << r.deadlock_report;
  if (args.has("--metrics")) std::cout << r.counters.summary();
  return r.healthy() ? 0 : 1;
}

int cmd_sweep(const ProtocolSpec& spec, const Args& args) {
  const std::string assignment =
      args.positional.empty() ? asura::kAssignV5Fix : args.positional[0];
  const auto seeds = static_cast<unsigned>(args.value_of("--seeds", 8));
  (void)spec.assignment(assignment);  // unknown: error before the header
  const std::size_t jobs = core::Pool::default_jobs();
  const std::vector<sim::SweepRun> grid =
      sim::default_sweep_grid(assignment, seeds);
  std::cout << "# sweep: " << grid.size() << " runs (" << assignment
            << "), jobs=" << jobs << "\n";
  const sim::SweepResult result = sim::SweepEngine(spec).run(grid, jobs);

  int bad = 0;
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const sim::SimResult& r = result.runs[i];
    if (r.healthy() || ++bad > 8) continue;
    std::cout << "BAD " << grid[i].label() << ": completed=" << r.completed
              << " deadlocked=" << r.deadlocked << " stalled=" << r.stalled
              << " steps=" << r.steps << "\n";
    for (const auto& e : r.errors) std::cout << "  " << e << "\n";
  }
  const double per_cycle =
      result.merged.cycles != 0
          ? static_cast<double>(result.events) /
                static_cast<double>(result.merged.cycles)
          : 0.0;
  std::ostringstream os;  // keeps std::fixed off std::cout
  os << std::fixed << std::setprecision(3) << "# " << result.runs.size()
     << " runs: " << result.completed << " completed, " << result.deadlocked
     << " deadlocked, " << result.stalled << " stalled, " << result.unhealthy
     << " unhealthy\n# events " << result.events << "  cycles "
     << result.merged.cycles << "  events/cycle " << per_cycle << "\n# wall "
     << result.seconds << "s  events/sec " << result.events_per_sec << "\n";
  std::cout << os.str();
  if (args.has("--metrics")) std::cout << result.merged.summary();
  return result.all_healthy() && bad == 0 ? 0 : 1;
}

int cmd_reach(const ProtocolSpec& spec, const Args& args) {
  const std::string assignment =
      args.positional.empty() ? asura::kAssignV5Fix : args.positional[0];
  ReachParallelConfig cfg;
  cfg.n_quads = args.value_of("--quads", 2);
  cfg.n_addrs = args.value_of("--addrs", 1);
  cfg.ops_per_node = args.value_of("--ops", 2);
  cfg.max_states =
      static_cast<std::uint64_t>(args.value_of("--max-states", 2000000));
  cfg.stop_at_first_deadlock = args.has("--first-deadlock");
  cfg.symmetry = args.has("--symmetry");
  if (args.has("--max-bytes")) {
    // A string flag: byte budgets pass the int range integer flags take.
    const std::string text = args.str_value_of("--max-bytes");
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, cfg.max_bytes);
    if (text.empty() || ec != std::errc() || ptr != end) {
      std::cerr << "error: --max-bytes needs a byte count\n";
      return 2;
    }
  }
  // Directed exploration: comma-separated op names / per-node budgets.
  if (const std::string ops = args.str_value_of("--only-ops");
      !ops.empty()) {
    std::istringstream ss(ops);
    for (std::string tok; std::getline(ss, tok, ',');) {
      if (tok.empty()) continue;
      if (!sim::is_workload_op(tok)) {
        std::cerr << "error: --only-ops: unknown operation '" << tok
                  << "'\n";
        return 2;
      }
      cfg.inject_ops.push_back(tok);
    }
  }
  if (const std::string budgets = args.str_value_of("--node-ops");
      !budgets.empty()) {
    std::istringstream ss(budgets);
    for (std::string tok; std::getline(ss, tok, ',');) {
      if (tok.empty()) continue;
      const std::optional<int> budget = parse_int(tok);
      if (!budget || *budget < 0) {
        std::cerr << "error: --node-ops needs comma-separated counts\n";
        return 2;
      }
      cfg.ops_by_node.push_back(*budget);
    }
    if (cfg.ops_by_node.size() > static_cast<std::size_t>(cfg.n_quads)) {
      std::cerr << "error: --node-ops gives " << cfg.ops_by_node.size()
                << " budgets for " << cfg.n_quads << " quads\n";
      return 2;
    }
  }

  // A search that injects nothing explores the initial state alone and
  // would certify every cycle unreachable.
  // Tested without arithmetic: large counts cannot overflow.
  const bool any_budget =
      (cfg.ops_per_node > 0 &&
       static_cast<std::size_t>(cfg.n_quads) > cfg.ops_by_node.size()) ||
      std::any_of(cfg.ops_by_node.begin(), cfg.ops_by_node.end(),
                  [](int ops) { return ops > 0; });
  if (!any_budget) {
    std::cerr << "error: every node's operation budget (--ops, --node-ops) "
                 "is 0: nothing to explore\n";
    return 2;
  }

  ReachParallelResult r =
      explore_parallel(spec, spec.assignment(assignment), cfg);
  std::cout << "states=" << r.states << " transitions=" << r.transitions
            << " complete=" << r.complete
            << " deadlock_states=" << r.deadlock_states
            << " violations=" << r.violations.size()
            << " waves=" << r.waves << " dedup=" << r.dedup_hits
            << " canon=" << r.canon_group << " (" << r.seconds << "s)\n";
  if (args.has("--stats")) {
    std::cout << "explorer memory: peak " << obs::format_bytes(r.peak_bytes)
              << " (" << r.peak_bytes / std::max<std::uint64_t>(r.states, 1)
              << " B/state)\n";
  }
  for (const auto& v : r.violations) std::cout << "  " << v << "\n";
  if (r.deadlock_states > 0) {
    std::cout << r.deadlock_example;
    std::cout << "witness: " << r.deadlock_trace.size()
              << " actions to the first deadlock\n";
    if (args.has("--witness")) {
      for (const auto& act : r.deadlock_trace) {
        std::cout << "  " << act.to_string() << "\n";
      }
    }
  }

  if (args.has("--classify")) {
    std::vector<ControllerTableRef> refs;
    for (const auto& c : spec.controllers()) {
      refs.push_back(
          ControllerTableRef::from_spec(*c, spec.database().get(c->name())));
    }
    DeadlockAnalysis analysis(refs, spec.assignment(assignment));
    std::cout << "cycle classification:\n"
              << format_classification(classify_cycles(
                     spec, spec.assignment(assignment), analysis.cycles(),
                     cfg));
  }
  return r.verified() ? 0 : 1;
}

int cmd_lint(const ProtocolSpec& spec, const Args&) {
  auto findings = lint(spec, asura::processor_sinks());
  std::cout << lint_report(findings);
  return 0;
}

int cmd_serve(const ProtocolSpec& spec, const Args& args) {
  serve::DriveOptions drive_opts;
  drive_opts.sessions =
      static_cast<std::size_t>(args.value_of("--sessions", 8));
  drive_opts.iterations =
      static_cast<std::size_t>(args.value_of("--iterations", 1));
  drive_opts.writer_swaps =
      static_cast<std::size_t>(args.value_of("--writer", 0));
  if (drive_opts.writer_swaps > 0) {
    drive_opts.writer_table = spec.controllers().front()->name();
  }

  // Workload: the paper's invariant suite (emptiness checks), or a SQL script
  // of SELECTs, one per line ('#' comments and blank lines skipped).
  std::vector<std::string> statements;
  if (const std::string path = args.str_value_of("--script"); !path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cout << "serve: cannot open script " << path << "\n";
      return 2;
    }
    for (std::string line; std::getline(in, line);) {
      const std::size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      statements.push_back(line);
    }
    drive_opts.check_empty = false;
  } else {
    for (const auto& inv : spec.invariants()) statements.push_back(inv.sql);
  }
  if (statements.empty()) {
    std::cout << "serve: nothing to run\n";
    return 2;
  }

  serve::Server server(spec.database());
  const serve::DriveReport report =
      serve::drive(server, statements, drive_opts);
  const serve::ServerStats stats = server.stats();

  std::cout << "serve: " << drive_opts.sessions << " sessions x "
            << drive_opts.iterations << " iterations over "
            << statements.size()
            << (drive_opts.check_empty ? " invariants" : " queries");
  std::cout << "\n  queries=" << report.queries
            << " violations=" << report.violations
            << " wall=" << report.wall_us / 1000
            << "ms qps=" << std::uint64_t(report.qps())
            << " p50=" << report.latency_percentile_us(0.5)
            << "us p95=" << report.latency_percentile_us(0.95) << "us\n";
  std::cout << "  plan_cache: hits=" << stats.cache.hits
            << " misses=" << stats.cache.misses
            << " evictions=" << stats.cache.evictions
            << " invalidations=" << stats.cache.invalidations
            << " rebinds=" << stats.cache.rebinds
            << " entries=" << stats.cache.entries << "\n";
  if (drive_opts.writer_swaps > 0) {
    std::cout << "  writer: swaps=" << report.writer_swaps
              << " generation=" << stats.generation << "\n";
  }
  if (args.has("-v")) {
    for (const auto& s : report.sessions) {
      std::cout << "  session " << s.id << ": queries=" << s.queries
                << " violations=" << s.violations
                << " run=" << s.run_us / 1000 << "ms\n";
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

int cmd_flow(const ProtocolSpec& spec, const Args&) {
  Flow flow(spec);
  FlowOptions opts;
  opts.map_directory = true;
  FlowReport report = flow.run(opts);
  std::cout << report.summary();
  std::cout << "debugged under " << asura::kAssignV5Fix << ": "
            << report.debugged(asura::kAssignV5Fix) << "\n";
  return report.debugged(asura::kAssignV5Fix) ? 0 : 1;
}

/// Installs the sink / metrics requested by --trace/--trace-format/--metrics
/// (the CCSQL_TRACE environment path is handled by Tracer::global() itself).
int configure_observability(const Args& args) {
  auto& tracer = obs::Tracer::global();
  if (args.has("--trace-format") && !args.has("--trace")) {
    std::cerr << "error: --trace-format needs --trace FILE\n";
    return 2;
  }
  if (args.has("--trace")) {
    const std::string path = args.str_value_of("--trace");
    if (path.empty()) {
      std::cerr << "error: --trace needs a file path\n";
      return 2;
    }
    obs::Format format = obs::format_for_path(path);
    if (args.has("--trace-format")) {
      auto parsed = obs::parse_format(args.str_value_of("--trace-format"));
      if (!parsed) {
        std::cerr << "error: --trace-format must be text, jsonl or chrome\n";
        return 2;
      }
      format = *parsed;
    }
    tracer.set_sink(obs::open_trace_file(path, format));
  }
  if (args.has("--metrics") || args.has("--stats")) tracer.enable_metrics();
  if (args.has("--jobs")) {
    // Before any parallel region, so the global pool is sized to match.
    core::Pool::set_default_jobs(
        static_cast<std::size_t>(args.value_of("--jobs", 1)));
  }
  return 0;
}

/// End-of-run one-page summary for --stats: the top counters, histogram
/// p50/p95/max, pool utilization, and memory accounting — no trace file
/// needed.
void print_stats_page(std::ostream& os) {
  obs::Metrics& metrics = obs::Tracer::global().metrics();
  core::Pool::global().publish_stats(metrics);
  obs::MemTracker::global().publish(metrics);

  os << "=== run stats ===\n";
  auto counters = metrics.counters();
  if (!counters.empty()) {
    std::vector<std::pair<std::string, std::uint64_t>> ranked(
        counters.begin(), counters.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (ranked.size() > 12) ranked.resize(12);
    os << "top counters:\n";
    for (const auto& [name, value] : ranked) {
      os << "  " << name << " = " << value << "\n";
    }
  }
  auto hists = metrics.histograms();
  if (!hists.empty()) {
    os << "histograms:\n";
    for (const auto& [name, h] : hists) {
      os << "  " << name << "  count=" << h.count << " p50=" << h.percentile(0.5)
         << " p95=" << h.percentile(0.95) << " max=" << h.max << "\n";
    }
  }
  os << core::Pool::global().stats().summary() << "\n";
  os << obs::MemTracker::global().summary() << "\n";
  // Serving-layer digest, present only when a serve::Server published.
  if (const std::uint64_t serve_queries = metrics.counter("serve.queries");
      serve_queries != 0) {
    os << "serve: queries=" << serve_queries << " (uncached "
       << metrics.counter("serve.uncached_queries") << ")  plan_cache hits="
       << metrics.counter("serve.plan_cache.hits")
       << " misses=" << metrics.counter("serve.plan_cache.misses")
       << " evictions=" << metrics.counter("serve.plan_cache.evictions")
       << " entries=" << metrics.counter("serve.plan_cache.entries")
       << "  snapshot.active=" << metrics.counter("serve.snapshot.active")
       << "\n";
  }
}

/// Every command: its name, its operands and help as usage() shows them,
/// and its entry point.  The flags each one reads are in kFlags.
struct Command {
  std::string_view name;
  std::string_view operands;
  std::string_view help;
  int (*run)(const ProtocolSpec&, const Args&);
};
constexpr Command kCommands[] = {
    {"tables", "[NAME]", "print controller tables", cmd_tables},
    {"sql", "\"STMT[; ...]\"", "run SQL against the protocol database",
     cmd_sql},
    {"explain", "\"SELECT\"", "show the optimized query plan", cmd_explain},
    {"invariants", "", "run the invariant suite", cmd_invariants},
    {"deadlock", "[ASSIGNMENT]", "deadlock analysis (default: all)",
     cmd_deadlock},
    {"map", "", "hardware-mapping flow", cmd_map},
    {"codegen", "TABLE", "emit code from an implementation table",
     cmd_codegen},
    {"sim", "[ASSIGNMENT]",
     "table-driven simulation; workloads: random, lock,\n"
     "      producer-consumer, false-sharing, streaming",
     cmd_sim},
    {"sweep", "[ASSIGNMENT]",
     "validation grid of simulations on the pool; exit 1 on any\n"
     "      unhealthy run",
     cmd_sweep},
    {"reach", "[ASSIGNMENT]",
     "exhaustive exploration, deterministic at any --jobs; --classify\n"
     "      labels each VCG cycle reachable/unreachable, --witness prints\n"
     "      the deadlock trace, --max-bytes caps the search's memory",
     cmd_reach},
    {"lint", "", "specification hygiene advisories", cmd_lint},
    {"serve", "",
     "multi-session serving loop (invariant suite or a SQL script) over\n"
     "      snapshots + the prepared-statement cache",
     cmd_serve},
    {"flow", "", "full push-button report", cmd_flow},
};

const Command* find_command(std::string_view name) {
  for (const Command& c : kCommands) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

/// Prints `line` followed by the flags `command` reads (the global flags
/// for ""), wrapped before column 76.
void print_flags(std::ostream& os, std::string line,
                 std::string_view command) {
  for (const FlagSpec& f : kFlags) {
    if (is_global(f) != command.empty() || !reads(f, command)) continue;
    std::string word = " [";
    word += f.name;
    if (!f.value.empty()) {
      word += ' ';
      word += f.value;
    }
    word += ']';
    if (line.size() + word.size() > 76) {
      os << line << "\n";
      line = "       ";
    }
    line += word;
  }
  os << line << "\n";
}

int usage() {
  std::ostringstream os;
  os << "usage: ccsql COMMAND [ARGS]\n";
  for (const Command& c : kCommands) {
    std::string head = "  ";
    head += c.name;
    if (!c.operands.empty()) {
      head += ' ';
      head += c.operands;
    }
    print_flags(os, std::move(head), c.name);
    os << "      " << c.help << "\n";
  }
  print_flags(os, "global flags (any command):", "");
  std::cerr << os.str();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const Command* command = find_command(argv[1]);
  if (command == nullptr) return usage();
  Args args;
  for (int i = 2; i < argc; ++i) {
    if (argv[i][0] == '-') {
      const FlagSpec* spec = find_flag(argv[i]);
      if (spec == nullptr) {
        std::cerr << "error: unknown flag " << argv[i] << "\n";
        return usage();
      }
      if (!reads(*spec, command->name)) {
        std::cerr << "error: " << command->name << " does not take "
                  << spec->name << "\n";
        return usage();
      }
      Args::Flag& flag =
          args.flags.emplace_back(Args::Flag{spec->name, {}, 0});
      if (spec->kind == kInt || spec->kind == kCount) {
        const std::optional<int> number =
            i + 1 < argc ? parse_int(argv[i + 1]) : std::nullopt;
        if (!number || *number < 0) {
          std::cerr << "error: " << spec->name << " needs an integer value\n";
          return 2;
        }
        if (spec->kind == kCount && *number == 0) {
          std::cerr << "error: " << spec->name << " needs at least 1\n";
          return 2;
        }
        flag.number = *number;
        ++i;
      } else if (spec->kind == FlagKind::kString && i + 1 < argc &&
                 argv[i + 1][0] != '-') {
        flag.text = argv[++i];
      }
    } else {
      args.positional.emplace_back(argv[i]);
    }
  }

  // Flushes and closes the trace sink however main unwinds — error returns,
  // thrown exceptions — so JSONL/Chrome traces are never truncated
  // mid-event.  finish() is idempotent: the explicit call below makes the
  // guard a no-op on the normal path.
  struct TraceFlushGuard {
    ~TraceFlushGuard() { obs::Tracer::global().finish(); }
  } flush_guard;
  int rc = 1;
  try {
    rc = configure_observability(args);
    if (rc == 0) rc = command->run(*asura::make_asura(), args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 1;
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    rc = 1;
  }
  auto& tracer = obs::Tracer::global();
  const bool print_metrics = tracer.metrics_enabled();
  if (args.has("--stats")) print_stats_page(std::cout);
  tracer.finish();  // flush + close the trace before the process exits
  if (print_metrics && !args.has("--stats")) {
    std::cout << tracer.metrics().summary();
  }
  return rc;
}
