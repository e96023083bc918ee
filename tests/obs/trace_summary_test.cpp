// End-to-end: ccsql --trace writes a JSONL trace, trace_summary digests
// it.  Binary paths are injected by CMake.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <unistd.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run(const std::string& cmd) {
  RunResult r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    r.output += buf.data();
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string temp_trace_path() {
  return "/tmp/ccsql_trace_summary_test_" + std::to_string(getpid()) +
         ".jsonl";
}

TEST(TraceSummary, UsageWithoutArguments) {
  RunResult r = run(TRACE_SUMMARY_BIN);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(TraceSummary, MissingFileFails) {
  RunResult r = run(std::string(TRACE_SUMMARY_BIN) + " /nonexistent.jsonl");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

TEST(TraceSummary, DigestsASimTrace) {
  const std::string trace = temp_trace_path();
  RunResult sim = run(std::string(CCSQL_BIN) +
                      " sim V5fix --quads 2 --txns 5 --trace " + trace);
  ASSERT_EQ(sim.exit_code, 0) << sim.output;

  RunResult r = run(std::string(TRACE_SUMMARY_BIN) + " " + trace);
  std::remove(trace.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("top spans"), std::string::npos);
  EXPECT_NE(r.output.find("sim/sim.run"), std::string::npos);
  EXPECT_NE(r.output.find("counters:"), std::string::npos);
  EXPECT_NE(r.output.find("sim.msgs_sent"), std::string::npos);
  // The solver ran to generate the tables, so its spans appear too.
  EXPECT_NE(r.output.find("solver/"), std::string::npos);
}

}  // namespace
