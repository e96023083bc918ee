// End-to-end smoke tests of the ccsql command-line driver: every command
// runs, produces the expected headline output, and returns the documented
// exit code.  The binary path is injected by CMake.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs ccsql with `args`; the output is stdout and stderr merged, or
/// stdout alone when `stderr_too` is false.
RunResult run(const std::string& args, bool stderr_too = true) {
  const std::string cmd = std::string(CCSQL_BIN) + " " + args +
                          (stderr_too ? " 2>&1" : " 2>/dev/null");
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    r.output += buf.data();
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

TEST(Cli, NoArgsShowsUsage) {
  RunResult r = run("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage: ccsql"), std::string::npos);
}

TEST(Cli, TablesListsAllEight) {
  RunResult r = run("tables");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* name : {"D:", "M:", "NC:", "CC:", "RSN:", "RAC:", "IOC:",
                           "INT:"}) {
    EXPECT_NE(r.output.find(name), std::string::npos) << name;
  }
}

TEST(Cli, TablesSingleCsv) {
  RunResult r = run("tables M --csv");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("inmsg,"), std::string::npos);
  EXPECT_NE(r.output.find("mread,"), std::string::npos);
}

TEST(Cli, SqlStatementChain) {
  RunResult r = run(
      "sql \"create table T as select distinct dirst from D; "
      "select count(*) from T order by count\"");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("3"), std::string::npos);  // I, SI, MESI
  // The CREATE TABLE AS names its table and row count instead of printing
  // the rows it stored.
  EXPECT_NE(r.output.find("T: 3 rows"), std::string::npos) << r.output;
  for (const char* state : {"dirst", "MESI", "SI"}) {
    EXPECT_EQ(r.output.find(state), std::string::npos) << r.output;
  }
}

TEST(Cli, SqlErrorsAreReported) {
  RunResult r = run("sql \"select nope from Missing\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(Cli, InvariantsPass) {
  RunResult r = run("invariants");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("0 violated"), std::string::npos);
  // The suite reports its total time against the paper's <5 min budget.
  EXPECT_NE(r.output.find("suite total:"), std::string::npos);
  EXPECT_NE(r.output.find("paper budget 300 s: PASS"), std::string::npos);
}

TEST(Cli, UnknownFlagsAreUsageErrors) {
  for (const char* flag : {"--no-planner", "--bogus-flag"}) {
    RunResult r = run(std::string("invariants ") + flag);
    EXPECT_EQ(r.exit_code, 2) << flag;
    EXPECT_NE(r.output.find(std::string("error: unknown flag ") + flag),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("usage: ccsql"), std::string::npos) << flag;
  }
  RunResult ok = run("invariants --jobs 2 --stats");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("0 violated"), std::string::npos);
  // Flags that selected since-deleted alternative engines are gone too.
  for (const char* cmd : {"sim --no-dense", "reach --sequential",
                          "serve --no-cache", "serve --max-inflight 2"}) {
    RunResult r = run(cmd);
    EXPECT_EQ(r.exit_code, 2) << cmd;
    EXPECT_NE(r.output.find("error: unknown flag"), std::string::npos)
        << r.output;
  }
  // A known flag the command does not read is refused, naming the command,
  // instead of running as if it were absent.
  const std::pair<const char*, const char*> unread[] = {
      {"reach V5fix --capacity 3 --ops 1", "reach does not take --capacity"},
      {"invariants --quads 9", "invariants does not take --quads"},
      {"sim --seeds 2", "sim does not take --seeds"},
      {"flow -v", "flow does not take -v"},
      // --fig4 runs a fixed 3-quad, capacity-1 machine: sim flags that
      // would shape another machine are refused, not ignored.
      {"sim V5 --fig4 --capacity 4 --quads 6",
       "sim --fig4 does not take --capacity"},
      {"sim V5fix --fig4 --workload lock --txns 500",
       "sim --fig4 does not take --workload"},
  };
  for (const auto& [cmd, message] : unread) {
    RunResult r = run(cmd);
    EXPECT_EQ(r.exit_code, 2) << cmd << "\n" << r.output;
    EXPECT_NE(r.output.find(std::string("error: ") + message),
              std::string::npos)
        << cmd << "\n" << r.output;
  }
  // usage() lists each command's own flags: sim's line names the capacity
  // and latency it reads.
  RunResult help = run("");
  for (const char* flag : {"[--capacity N]", "[--latency N]"}) {
    EXPECT_NE(help.output.find(flag), std::string::npos) << help.output;
  }
}

/// A run that would check nothing, or less than asked, is a usage error
/// rather than a verdict.
TEST(Cli, VacuousRunsAreUsageErrors) {
  const std::pair<const char*, const char*> cases[] = {
      {"sweep --seeds 0", "--seeds needs at least 1 seed"},
      {"reach --quads 2 --node-ops 1,1,7",
       "--node-ops gives 3 budgets for 2 quads"},
      // A misspelt operation would leave the Figure 4 search over prd alone
      // and certify the wedge unreachable.
      {"reach V5 --quads 2 --addrs 3 --ops 2 --only-ops prd,patomc "
       "--node-ops 2,1 --classify",
       "--only-ops: unknown operation 'patomc'"},
  };
  for (const auto& [cmd, message] : cases) {
    RunResult r = run(cmd);
    EXPECT_EQ(r.exit_code, 2) << cmd << "\n" << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos)
        << cmd << "\n" << r.output;
    EXPECT_EQ(r.output.find("unreachable"), std::string::npos) << r.output;
  }
}

/// An integer flag takes the next argument, which must be a whole int: a
/// trailing suffix, a word, or a missing value is a usage error rather than
/// a silently ignored value or a stray positional argument.
TEST(Cli, MalformedIntegerFlagsAreUsageErrors) {
  const std::pair<const char*, const char*> cases[] = {
      {"sim V5fix --quads 2 --txns 1x", "--txns"},
      {"sim --quads abc", "--quads"},
      {"sim --quads --txns 5", "--quads"},
      {"sim --quads", "--quads"},
      {"reach --max-states -5", "--max-states"},
      {"serve --sessions 2x", "--sessions"},
      {"sweep --seeds x", "--seeds"},
  };
  for (const auto& [cmd, flag] : cases) {
    RunResult r = run(cmd);
    EXPECT_EQ(r.exit_code, 2) << cmd << "\n" << r.output;
    EXPECT_NE(r.output.find(std::string("error: ") + flag +
                            " needs an integer value"),
              std::string::npos)
        << cmd << "\n" << r.output;
  }
  // A per-node budget is a count too: a sign is rejected, not read as 0.
  for (const char* cmd : {"reach --node-ops 1,x", "reach --node-ops 2,-1"}) {
    RunResult bad_budget = run(cmd);
    EXPECT_EQ(bad_budget.exit_code, 2) << cmd << "\n" << bad_budget.output;
    EXPECT_NE(bad_budget.output.find("--node-ops needs"), std::string::npos)
        << cmd << "\n" << bad_budget.output;
  }
  // A zero-capacity channel never accepts a message; the simulator refuses
  // the configuration instead of stalling.
  RunResult no_capacity = run("sim --capacity 0");
  EXPECT_EQ(no_capacity.exit_code, 1) << no_capacity.output;
  EXPECT_NE(no_capacity.output.find("error: sim: need a channel capacity"),
            std::string::npos)
      << no_capacity.output;
}

TEST(Cli, DeadlockFindsFigure4AndExitsNonzero) {
  RunResult r = run("deadlock V5");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cycle"), std::string::npos);
  EXPECT_NE(r.output.find("VC4"), std::string::npos);
}

TEST(Cli, DeadlockCleanAssignmentExitsZero) {
  RunResult r = run("deadlock V5fix");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("deadlock-free"), std::string::npos);
}

TEST(Cli, UnknownAssignmentIsAnError) {
  // `deadlock V9` used to skip every assignment and exit 0 with no output:
  // a certificate of deadlock freedom for an assignment that does not
  // exist.  `sweep V9` printed its grid header before failing.
  for (const char* cmd : {"deadlock V9", "sweep V9 --seeds 1"}) {
    const RunResult out = run(cmd, /*stderr_too=*/false);
    EXPECT_EQ(out.exit_code, 1) << cmd;
    EXPECT_EQ(out.output, "") << cmd;
    const RunResult both = run(cmd);
    EXPECT_NE(both.output.find("error: unknown channel assignment: V9"),
              std::string::npos)
        << cmd << ": " << both.output;
  }
}

TEST(Cli, MapVerifies) {
  RunResult r = run("map");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("ED reconstructed: 1"), std::string::npos);
}

TEST(Cli, CodegenEmitsFunction) {
  RunResult r = run("codegen Response_bdir");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("void Response_bdir_step"), std::string::npos);
  RunResult casez = run("codegen Response_bdir --casez");
  EXPECT_NE(casez.output.find("casez"), std::string::npos);
}

// The Figure 4 wedge, pinned: the home's idone on VC2 waits behind the
// writeback on VC4 and vice versa.  V5fix runs the same script to the end.
TEST(Cli, SimFig4DeadlocksUnderV5) {
  RunResult r = run("sim V5 --fig4");
  EXPECT_EQ(r.exit_code, 1);
  for (const char* line : {"DEADLOCK in 35 steps",
                           "VC2 2->2 [1/1]: idone(a2 2->2)",
                           "VC4 2->2 [1/1]: wb(a5 2->2)"}) {
    EXPECT_NE(r.output.find(line), std::string::npos) << line << r.output;
  }
  RunResult fixed = run("sim V5fix --fig4");
  EXPECT_EQ(fixed.exit_code, 0) << fixed.output;
  EXPECT_NE(fixed.output.find("completed in 34 steps"), std::string::npos)
      << fixed.output;
}

TEST(Cli, SimRandomHealthyUnderFix) {
  RunResult r = run("sim V5fix --quads 3 --txns 30 --seed 5");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("completed=1"), std::string::npos);
  EXPECT_NE(r.output.find("errors=0"), std::string::npos);
}

TEST(Cli, ReachSmallConfigVerified) {
  RunResult r = run("reach V5fix --quads 2 --addrs 1 --ops 1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("complete=1"), std::string::npos);
  EXPECT_NE(r.output.find("deadlock_states=0"), std::string::npos);
}

TEST(Cli, ReachClassifiesTheFigure4Cycle) {
  RunResult r = run(
      "reach V5 --quads 2 --addrs 3 --ops 2 --only-ops prd,patomic "
      "--node-ops 2,1 --classify");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("cycle 0 [VC2 VC4]: reachable"), std::string::npos)
      << r.output;
}

TEST(Cli, SweepRunsTheValidationGrid) {
  RunResult r = run("sweep V5fix --seeds 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("45 runs: 45 completed"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("BAD "), std::string::npos) << r.output;
  RunResult v5 = run("sweep V5 --seeds 1");
  EXPECT_EQ(v5.exit_code, 1) << v5.output;
  EXPECT_NE(v5.output.find("BAD "), std::string::npos) << v5.output;
}

TEST(Cli, ReachByteBudgetStopsTheSearch) {
  RunResult r = run("reach V5fix --ops 2 --max-bytes 100000 --stats");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("complete=0"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("explorer memory: peak"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("explorer 0 B live /"), std::string::npos);
  for (const char* bad : {"reach --max-bytes 1x", "reach --max-bytes"}) {
    RunResult b = run(bad);
    EXPECT_EQ(b.exit_code, 2) << bad << "\n" << b.output;
    EXPECT_NE(b.output.find("--max-bytes needs a byte count"),
              std::string::npos)
        << b.output;
  }
}

TEST(Cli, ServeSessionsRunTheSuiteClean) {
  RunResult r = run("serve --sessions 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("violations=0"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("plan_cache: hits="), std::string::npos);
}

TEST(Cli, ServeWithConcurrentWriter) {
  RunResult r = run("serve --sessions 2 --writer 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("writer: swaps="), std::string::npos) << r.output;
}

/// Script queries are read like invariants: each returned row counts as a
/// violation, so a clean script exits 0.
TEST(Cli, ServeRunsAScript) {
  const std::string script =
      "/tmp/ccsql_cli_serve_" + std::to_string(getpid()) + ".sql";
  {
    std::ofstream out(script);
    out << "# one query\nselect dirst from D where dirst = \"nosuch\"\n";
  }
  RunResult r = run("serve --sessions 2 --script " + script);
  std::remove(script.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("over 1 queries"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("violations=0"), std::string::npos) << r.output;
}

TEST(Cli, ServeMissingScriptIsUsageError) {
  RunResult r = run("serve --script /nonexistent");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot open script"), std::string::npos)
      << r.output;
}

TEST(Cli, LintReportsPinnedAdvisories) {
  RunResult r = run("lint");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("8 finding(s)"), std::string::npos);
  EXPECT_NE(r.output.find("Dfdback"), std::string::npos);
}

TEST(Cli, FlowReportsDebugged) {
  RunResult r = run("flow");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("debugged under V5fix: 1"), std::string::npos);
  EXPECT_NE(r.output.find("hardware mapping:"), std::string::npos);
  EXPECT_NE(r.output.find("sim validation"), std::string::npos);
  EXPECT_NE(r.output.find("budget OK"), std::string::npos);
}

TEST(Cli, ExplainAnalyzeProfilesOperators) {
  RunResult r = run(
      "explain --analyze \"Select a.memmsg, b.inmsg, b.outmsg from D a, M b "
      "where a.memmsg = b.inmsg and a.memmsg = \\\"wb\\\" and "
      "not b.outmsg = \\\"compl\\\"\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("time="), std::string::npos);
  EXPECT_NE(r.output.find("rows_out="), std::string::npos);
  EXPECT_NE(r.output.find("build="), std::string::npos);
  EXPECT_NE(r.output.find("memory:"), std::string::npos);
  // Plain explain carries no profile brackets.
  RunResult plain = run("explain \"Select dirst from D\"");
  EXPECT_EQ(plain.exit_code, 0);
  EXPECT_EQ(plain.output.find("time="), std::string::npos);
}

TEST(Cli, StatsPrintsOnePageSummary) {
  RunResult r = run("invariants --stats");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("=== run stats ==="), std::string::npos);
  EXPECT_NE(r.output.find("pool:"), std::string::npos);
  EXPECT_NE(r.output.find("memory:"), std::string::npos);
  EXPECT_NE(r.output.find("p95="), std::string::npos);
}

TEST(Cli, SimMetricsPrintsCounterTable) {
  RunResult r = run("sim V5fix --quads 2 --txns 10 --metrics");
  EXPECT_EQ(r.exit_code, 0);
  // Per-run counters ...
  EXPECT_NE(r.output.find("sim.msgs_sent"), std::string::npos);
  EXPECT_NE(r.output.find("sim.table_hits"), std::string::npos);
  EXPECT_NE(r.output.find("sim.vc_sent."), std::string::npos);
  // ... and the global registry (solver counters from table generation).
  EXPECT_NE(r.output.find("solver.tables_generated"), std::string::npos);
}

TEST(Cli, FlowChromeTraceCoversEveryLayer) {
  const std::string trace =
      "/tmp/ccsql_cli_trace_" + std::to_string(getpid()) + ".json";
  RunResult r = run("flow --trace " + trace + " --trace-format chrome");
  EXPECT_EQ(r.exit_code, 0) << r.output;

  std::ifstream in(trace);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string body = buffer.str();
  std::remove(trace.c_str());

  EXPECT_EQ(body.front(), '[');  // a trace_event JSON array
  // Spans from all four instrumented layers plus the flow driver itself.
  EXPECT_NE(body.find("\"cat\":\"relational\""), std::string::npos);
  EXPECT_NE(body.find("\"cat\":\"solver\""), std::string::npos);
  EXPECT_NE(body.find("\"cat\":\"checks\""), std::string::npos);
  EXPECT_NE(body.find("\"cat\":\"sim\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"flow.run\""), std::string::npos);
  // trace_event required keys.
  EXPECT_NE(body.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(body.find("\"ts\":"), std::string::npos);
}

TEST(Cli, TraceFlagRequiresAPath) {
  RunResult r = run("flow --trace");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--trace needs a file path"), std::string::npos);
}

TEST(Cli, BadTraceFormatIsRejected) {
  RunResult r = run("flow --trace /tmp/x.json --trace-format yaml");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--trace-format must be"), std::string::npos);
  // A format with no trace to apply it to is refused, not ignored.
  RunResult lone = run("invariants --trace-format chrome");
  EXPECT_EQ(lone.exit_code, 2) << lone.output;
  EXPECT_NE(lone.output.find("error: --trace-format needs --trace"),
            std::string::npos)
      << lone.output;
}

}  // namespace
