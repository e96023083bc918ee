#include "core/flow.hpp"

#include <gtest/gtest.h>

#include "protocol/asura/asura.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& asura_spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

TEST(Flow, FullAsuraRunIsDebuggedUnderTheFix) {
  Flow flow(asura_spec());
  FlowOptions opts;
  opts.map_directory = true;
  FlowReport report = flow.run(opts);

  EXPECT_EQ(report.tables.size(), 8u);
  for (const auto& t : report.tables) {
    EXPECT_GT(t.rows, 0u) << t.name;
    EXPECT_GT(t.gen_micros, 0.0) << t.name;
  }
  EXPECT_GE(report.invariants.size(), 45u);
  EXPECT_TRUE(report.invariants_hold());

  ASSERT_EQ(report.assignments.size(), 3u);
  EXPECT_FALSE(report.deadlock_free(asura::kAssignV4));
  EXPECT_FALSE(report.deadlock_free(asura::kAssignV5));
  EXPECT_TRUE(report.deadlock_free(asura::kAssignV5Fix));
  EXPECT_FALSE(report.deadlock_free());  // some assignment has cycles

  EXPECT_TRUE(report.mapping_ran);
  EXPECT_TRUE(report.mapping.ok());

  // The paper's acceptance criterion holds for the shipped assignment and
  // fails for the buggy ones.
  EXPECT_TRUE(report.debugged(asura::kAssignV5Fix));
  EXPECT_FALSE(report.debugged(asura::kAssignV5));

  // The paper's interactive <5-minute budget must hold for this suite.
  EXPECT_TRUE(report.invariants_within_budget());
  EXPECT_GT(InvariantChecker::total_micros(report.invariants), 0.0);

  // The dynamic-validation simulation ran under the cycle-free assignment
  // and is healthy.
  EXPECT_TRUE(report.sim.ran);
  EXPECT_FALSE(report.sim.skipped);
  EXPECT_EQ(report.sim.assignment, asura::kAssignV5Fix);
  EXPECT_TRUE(report.sim.healthy);
  EXPECT_GT(report.sim.transactions, 0);
  EXPECT_EQ(report.sim.error_count, 0u);
}

TEST(Flow, SimValidationCanBeDisabled) {
  Flow flow(asura_spec());
  FlowOptions opts;
  opts.sim_validate = false;
  FlowReport report = flow.run(opts);
  EXPECT_FALSE(report.sim.ran);
  EXPECT_FALSE(report.sim.skipped);
  EXPECT_EQ(report.summary().find("sim validation"), std::string::npos);
}

TEST(Flow, SimValidationSkipsWhenNoCycleFreeAssignment) {
  Flow flow(asura_spec());
  FlowOptions opts;
  opts.assignments = {asura::kAssignV5};  // has cycles
  FlowReport report = flow.run(opts);
  EXPECT_FALSE(report.sim.ran);
  EXPECT_TRUE(report.sim.skipped);
  EXPECT_NE(report.summary().find("sim validation: skipped"),
            std::string::npos);
}

TEST(Flow, AssignmentFilterLimitsAnalysis) {
  Flow flow(asura_spec());
  FlowOptions opts;
  opts.assignments = {asura::kAssignV5};
  FlowReport report = flow.run(opts);
  ASSERT_EQ(report.assignments.size(), 1u);
  EXPECT_EQ(report.assignments[0].name, asura::kAssignV5);
  EXPECT_GT(report.assignments[0].edges, 0u);
  EXPECT_FALSE(report.assignments[0].cycles.empty());
}

TEST(Flow, SummaryMentionsEverything) {
  Flow flow(asura_spec());
  FlowOptions opts;
  opts.map_directory = true;
  std::string s = flow.run(opts).summary();
  EXPECT_NE(s.find("controller tables:"), std::string::npos);
  EXPECT_NE(s.find("D: "), std::string::npos);
  EXPECT_NE(s.find("invariants: "), std::string::npos);
  EXPECT_NE(s.find("budget OK"), std::string::npos);
  EXPECT_NE(s.find("assignment V5fix"), std::string::npos);
  EXPECT_NE(s.find("hardware mapping: "), std::string::npos);
  EXPECT_NE(s.find("verified"), std::string::npos);
  EXPECT_NE(s.find("sim validation"), std::string::npos);
  EXPECT_NE(s.find("healthy"), std::string::npos);
}

TEST(Flow, CatchesInjectedInvariantViolation) {
  // A fresh spec with a deliberately broken extra invariant.
  auto spec = asura::make_asura();
  spec->add_invariant(NamedInvariant{
      "bogus", "there are readex rows, so this fails",
      "[select inmsg from D where inmsg = readex] = empty"});
  Flow flow(*spec);
  FlowReport report = flow.run();
  EXPECT_FALSE(report.invariants_hold());
  EXPECT_FALSE(report.debugged(asura::kAssignV5Fix));
  EXPECT_NE(report.summary().find("1 violated"), std::string::npos);
}

}  // namespace
}  // namespace ccsql
