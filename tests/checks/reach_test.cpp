#include "checks/reach.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

#include "protocol/asura/asura.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

TEST(Reach, TrivialConfigurationIsVerified) {
  ReachConfig cfg;
  cfg.n_quads = 1;
  cfg.n_addrs = 1;
  cfg.ops_per_node = 1;
  ReachResult r = explore(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.verified()) << (r.violations.empty()
                                    ? r.deadlock_example
                                    : r.violations.front());
  EXPECT_GT(r.states, 1u);
  EXPECT_GT(r.transitions, 0u);
}

TEST(Reach, TwoQuadsOneOpEachExhaustsCleanly) {
  ReachConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 1;
  cfg.ops_per_node = 1;
  for (const char* a : {asura::kAssignV5, asura::kAssignV5Fix}) {
    ReachResult r = explore(spec(), spec().assignment(a), cfg);
    EXPECT_TRUE(r.complete) << a;
    EXPECT_TRUE(r.verified()) << a;
  }
}

TEST(Reach, TwoOpsPerNodeStillVerified) {
  // ~37k states: every interleaving of two transactions per node over one
  // line, including all the grant / upgrade / writeback races.
  ReachConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 1;
  cfg.ops_per_node = 2;
  ReachResult r = explore(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.verified()) << (r.violations.empty()
                                    ? r.deadlock_example
                                    : r.violations.front());
  EXPECT_GT(r.states, 10000u);
}

TEST(Reach, DeterministicStateCounts) {
  ReachConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 1;
  cfg.ops_per_node = 1;
  ReachResult a = explore(spec(), spec().assignment(asura::kAssignV5), cfg);
  ReachResult b = explore(spec(), spec().assignment(asura::kAssignV5), cfg);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
}

TEST(Reach, BudgetTruncationReported) {
  ReachConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 2;
  cfg.ops_per_node = 2;
  cfg.max_states = 500;
  ReachResult r = explore(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  EXPECT_FALSE(r.complete);
  EXPECT_FALSE(r.verified());
  EXPECT_GE(r.states, 500u);
}

TEST(Reach, DiscoversTheFigure4DeadlockUnaided) {
  // Two lines sharing a home plus two ops per node is enough for the
  // breadth-first search to walk into the Figure 4 wedge on its own: the
  // witness channels are exactly the paper's — an idone stuck in VC2 and a
  // directory->memory request stuck in VC4.
  ReachConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 3;  // addresses 0 and 2 share home 0
  cfg.ops_per_node = 2;
  cfg.stop_at_first_deadlock = true;
  ReachResult r = explore(spec(), spec().assignment(asura::kAssignV5), cfg);
  ASSERT_GE(r.deadlock_states, 1u);
  EXPECT_NE(r.deadlock_example.find("VC2"), std::string::npos);
  EXPECT_NE(r.deadlock_example.find("VC4"), std::string::npos);
  EXPECT_NE(r.deadlock_example.find("idone"), std::string::npos);
  EXPECT_TRUE(r.violations.empty());
}

/// An operation outside the injectable alphabet is an error in both
/// explorers, not a silently smaller (and falsely complete) search.
TEST(Reach, UnknownInjectedOpIsRejected) {
  ReachParallelConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 3;
  cfg.ops_per_node = 2;
  cfg.inject_ops = {"prd", "patomc"};
  const ChannelAssignment& v5 = spec().assignment(asura::kAssignV5);
  EXPECT_THROW(explore(spec(), v5, cfg), std::invalid_argument);
  EXPECT_THROW(explore_parallel(spec(), v5, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ccsql
