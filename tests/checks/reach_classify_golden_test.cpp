// Golden output for VCG cycle classification (ccsql reach --classify): the
// Figure 4 cycle is reachable with a concrete witness, the composition-artifact self-loops are provably unreachable,
// and a truncated search says so instead of claiming either.
#include <gtest/gtest.h>

#include "checks/reach.hpp"
#include "checks/vcg.hpp"
#include "protocol/asura/asura.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

std::vector<VcgCycle> cycles_of(const char* assignment) {
  std::vector<ControllerTableRef> refs;
  for (const auto& c : spec().controllers()) {
    refs.push_back(
        ControllerTableRef::from_spec(*c, spec().database().get(c->name())));
  }
  DeadlockAnalysis analysis(refs, spec().assignment(assignment));
  return analysis.cycles();
}

ReachParallelConfig fig4_config() {
  ReachParallelConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 3;
  cfg.ops_per_node = 2;
  cfg.inject_ops = {"prd", "patomic"};
  cfg.ops_by_node = {2, 1};
  return cfg;
}

TEST(ReachClassifyGolden, V5CyclesClassifiedAgainstDirectedSearch) {
  const auto cycles = cycles_of(asura::kAssignV5);
  ASSERT_EQ(cycles.size(), 3u);
  const auto result =
      classify_cycles(spec(), spec().assignment(asura::kAssignV5), cycles,
                      fig4_config());
  EXPECT_EQ(format_classification(result),
            "cycle 0 [VC2 VC4]: reachable  (witness: 16 actions)\n"
            "cycle 1 [VC4]: unreachable  (15429 states, search complete)\n"
            "cycle 2 [VC2]: unreachable  (15429 states, search complete)\n");

  // Structured view: the real cycle carries a witness, the artifacts don't.
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].verdict, CycleVerdict::kReachable);
  EXPECT_FALSE(result[0].witness.empty());
  EXPECT_EQ(result[1].verdict, CycleVerdict::kUnreachable);
  EXPECT_TRUE(result[1].witness.empty());
  EXPECT_EQ(result[2].verdict, CycleVerdict::kUnreachable);
}

TEST(ReachClassifyGolden, FixedAssignmentHasNothingToClassify) {
  const auto cycles = cycles_of(asura::kAssignV5Fix);
  EXPECT_TRUE(cycles.empty());
  const auto result =
      classify_cycles(spec(), spec().assignment(asura::kAssignV5Fix), cycles,
                      fig4_config());
  EXPECT_EQ(format_classification(result), "no cycles to classify\n");
}

TEST(ReachClassifyGolden, TruncatedSearchReportsBudgetNotAbsence) {
  ReachParallelConfig cfg = fig4_config();
  cfg.max_states = 200;  // far below the first deadlock's wave
  const auto cycles = cycles_of(asura::kAssignV5);
  const auto result = classify_cycles(
      spec(), spec().assignment(asura::kAssignV5), cycles, cfg);
  ASSERT_EQ(result.size(), 3u);
  for (const auto& c : result) {
    EXPECT_EQ(c.verdict, CycleVerdict::kBudget);
    EXPECT_EQ(c.states_searched, 200u);
  }
  EXPECT_EQ(format_classification(result),
            "cycle 0 [VC2 VC4]: not reached within budget  "
            "(200 states, search truncated)\n"
            "cycle 1 [VC4]: not reached within budget  "
            "(200 states, search truncated)\n"
            "cycle 2 [VC2]: not reached within budget  "
            "(200 states, search truncated)\n");
}

}  // namespace
}  // namespace ccsql
