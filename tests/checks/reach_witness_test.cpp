// Witness reconstruction: the parent-pointer trace of a deadlock must
// replay, action by action, on a fresh machine and land in a state that is
// wedged — messages in flight with no applicable action.
#include <gtest/gtest.h>

#include "checks/reach.hpp"
#include "protocol/asura/asura.hpp"
#include "sim/machine.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

/// The directed Figure 4 configuration: two addresses homed at quad 0,
/// read/atomic traffic, one remote requester.  Deadlocks under V5.
ReachParallelConfig fig4_config() {
  ReachParallelConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 3;
  cfg.ops_per_node = 2;
  cfg.inject_ops = {"prd", "patomic"};
  cfg.ops_by_node = {2, 1};
  return cfg;
}

sim::Machine fresh_machine(const ReachParallelConfig& cfg, const char* a) {
  sim::SimConfig sim_cfg;
  sim_cfg.n_quads = cfg.n_quads;
  sim_cfg.n_addrs = cfg.n_addrs;
  sim_cfg.channel_capacity = cfg.channel_capacity;
  sim_cfg.transactions_per_node = cfg.ops_per_node;
  sim_cfg.transactions_by_node = cfg.ops_by_node;
  sim_cfg.workload_ops = cfg.inject_ops;
  sim::Machine m(spec(), spec().assignment(a), sim_cfg);
  m.enable_workload();
  return m;
}

TEST(ReachWitness, Figure4TraceReplaysToAWedgedState) {
  const ReachParallelConfig cfg = fig4_config();
  const ReachParallelResult r =
      explore_parallel(spec(), spec().assignment(asura::kAssignV5), cfg);
  ASSERT_GT(r.deadlock_states, 0u);
  ASSERT_FALSE(r.deadlock_trace.empty());
  ASSERT_TRUE(r.complete);  // the directed space is small enough to finish

  sim::Machine m = fresh_machine(cfg, asura::kAssignV5);
  for (const auto& act : r.deadlock_trace) {
    ASSERT_TRUE(m.apply_action(act)) << "stuck at: " << act.to_string();
  }

  // The replayed state is the deadlock the explorer reported: messages in
  // flight, nothing deliverable, nothing injectable.
  EXPECT_FALSE(m.quiescent());
  for (const auto& act : m.possible_actions()) {
    EXPECT_FALSE(m.apply_action(act)) << "live action: " << act.to_string();
  }
  EXPECT_TRUE(m.errors().empty());
}

TEST(ReachWitness, DeadlockListCoversTheFigure4Wedge) {
  const ReachParallelConfig cfg = fig4_config();
  const ReachParallelResult r =
      explore_parallel(spec(), spec().assignment(asura::kAssignV5), cfg);
  ASSERT_FALSE(r.deadlocks.empty());
  // One recorded deadlock wedges exactly {VC2, VC4} — the Figure 4 cycle.
  bool found = false;
  for (const auto& d : r.deadlocks) {
    std::vector<std::string> names;
    for (const auto& vc : d.occupied) names.emplace_back(vc.str());
    if (names == std::vector<std::string>{"VC2", "VC4"}) {
      found = true;
      EXPECT_FALSE(d.trace.empty());
    }
  }
  EXPECT_TRUE(found);
}

TEST(ReachWitness, FixedAssignmentHasNoDeadlock) {
  const ReachParallelConfig cfg = fig4_config();
  const ReachParallelResult r =
      explore_parallel(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.deadlock_states, 0u);
  EXPECT_TRUE(r.deadlock_trace.empty());
  EXPECT_TRUE(r.deadlocks.empty());
}

TEST(ReachWitness, StopAtFirstDeadlockShortCircuits) {
  ReachParallelConfig cfg = fig4_config();
  cfg.stop_at_first_deadlock = true;
  const ReachParallelResult r =
      explore_parallel(spec(), spec().assignment(asura::kAssignV5), cfg);
  EXPECT_GT(r.deadlock_states, 0u);
  EXPECT_FALSE(r.complete);  // stopped early by design
  EXPECT_FALSE(r.deadlock_trace.empty());

  // The early trace replays just like the exhaustive one.
  sim::Machine m = fresh_machine(cfg, asura::kAssignV5);
  for (const auto& act : r.deadlock_trace) {
    ASSERT_TRUE(m.apply_action(act)) << "stuck at: " << act.to_string();
  }
  EXPECT_FALSE(m.quiescent());
}

TEST(ReachWitness, MaxStatesTruncationIsReported) {
  ReachParallelConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 1;
  cfg.ops_per_node = 2;
  cfg.max_states = 500;
  const ReachParallelResult r =
      explore_parallel(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.states, 500u);
}

}  // namespace
}  // namespace ccsql
