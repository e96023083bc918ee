#include "sim/machine.hpp"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "protocol/asura/asura.hpp"

namespace ccsql::sim {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

/// The Figure 4 scenario: line A modified at the node co-located with home
/// (the L != H = R placement), line B modified at another node; wb(B) and
/// readex(A) issued concurrently into one-deep channels.
SimResult run_fig4(const char* assignment) {
  SimConfig cfg;
  cfg.n_quads = 3;
  cfg.n_addrs = 6;
  cfg.channel_capacity = 1;
  Machine m(spec(), spec().assignment(assignment), cfg);
  m.set_memory_latency(16);
  m.set_line(2, "MESI", {2});
  m.set_line(5, "MESI", {0});
  m.script(0, "pwb", 5);
  m.script(1, "pwr", 2);
  return m.run();
}

TEST(MachineFig4, DeadlocksUnderV5) {
  SimResult r = run_fig4(asura::kAssignV5);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_FALSE(r.completed);
  // The blocked channels are exactly the paper's cycle: the idone sits in
  // VC2 while the forwarded wb sits in VC4.
  EXPECT_NE(r.deadlock_report.find("VC2"), std::string::npos);
  EXPECT_NE(r.deadlock_report.find("idone"), std::string::npos);
  EXPECT_NE(r.deadlock_report.find("VC4"), std::string::npos);
  EXPECT_NE(r.deadlock_report.find("wb"), std::string::npos);
  EXPECT_TRUE(r.errors.empty()) << r.errors.front();
}

TEST(MachineFig4, CompletesUnderV5Fix) {
  SimResult r = run_fig4(asura::kAssignV5Fix);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.transactions_done, 2);
  EXPECT_TRUE(r.errors.empty()) << r.errors.front();
}

TEST(MachineFig4, DeadlocksUnderV4Too) {
  // V4 shares VC0 between node requests and directory->memory requests;
  // the same scenario wedges there as well.
  SimResult r = run_fig4(asura::kAssignV4);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.deadlocked);
}

/// A misspelt operation must not shrink the injected alphabet silently: a
/// search over the rest would report the Figure 4 wedge unreachable.
TEST(MachineConfig, UnknownWorkloadOpThrowsNamingIt) {
  SimConfig cfg;
  cfg.workload_ops = {"prd", "patomc"};
  try {
    Machine m(spec(), spec().assignment(asura::kAssignV5), cfg);
    FAIL() << "an unknown operation was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'patomc'"), std::string::npos)
        << e.what();
  }
  cfg.workload_ops = {"prd", "patomic"};
  EXPECT_NO_THROW(Machine(spec(), spec().assignment(asura::kAssignV5), cfg));
}

TEST(MachineConfig, MoreNodeBudgetsThanQuadsThrows) {
  SimConfig cfg;
  cfg.n_quads = 2;
  cfg.transactions_by_node = {1, 1, 7};
  try {
    Machine m(spec(), spec().assignment(asura::kAssignV5), cfg);
    FAIL() << "a budget for a third quad was accepted at 2 quads";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("3 budgets for 2 quads"),
              std::string::npos)
        << e.what();
  }
  cfg.transactions_by_node = {1, 7};
  EXPECT_NO_THROW(Machine(spec(), spec().assignment(asura::kAssignV5), cfg));
}

TEST(MachineScripted, ReadExclusiveTransfersOwnership) {
  SimConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 2;
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_line(1, "MESI", {1});
  m.script(0, "pwr", 1);  // readex of a line owned elsewhere
  SimResult r = m.run();
  EXPECT_TRUE(r.healthy()) << (r.errors.empty() ? "" : r.errors.front());
  EXPECT_EQ(r.transactions_done, 1);
}

TEST(MachineScripted, ReadDowngradesOwner) {
  SimConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 2;
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_line(0, "MESI", {1});
  m.script(1, "prd", 0);  // hit at the owner: no traffic
  m.script(0, "prd", 0);  // remote read: sfetch / rdata path
  SimResult r = m.run();
  EXPECT_TRUE(r.healthy()) << (r.errors.empty() ? "" : r.errors.front());
}

TEST(MachineScripted, FlushFromNonHolder) {
  SimConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 2;
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_line(1, "MESI", {1});
  m.script(0, "pfl", 1);  // flush a line owned elsewhere: sflush path
  SimResult r = m.run();
  EXPECT_TRUE(r.healthy()) << (r.errors.empty() ? "" : r.errors.front());
}

TEST(MachineScripted, WritebackRoundTrip) {
  SimConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 2;
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_line(1, "MESI", {0});
  m.script(0, "pwb", 1);
  m.script(1, "prd", 1);  // reader sees the written-back data
  SimResult r = m.run();
  EXPECT_TRUE(r.healthy()) << (r.errors.empty() ? "" : r.errors.front());
  EXPECT_EQ(r.transactions_done, 2);
}

TEST(MachineScripted, UpgradeInvalidatesOtherSharers) {
  SimConfig cfg;
  cfg.n_quads = 3;
  cfg.n_addrs = 3;
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_line(0, "SI", {1, 2});
  m.script(1, "pup", 0);
  SimResult r = m.run();
  EXPECT_TRUE(r.healthy()) << (r.errors.empty() ? "" : r.errors.front());
  auto leftovers = m.check_quiescent_state();
  EXPECT_TRUE(leftovers.empty());
}

TEST(MachineScripted, CoherentIoReadFromOwnedLine) {
  SimConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 2;
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_line(1, "MESI", {1});
  m.script(0, "iord", 1);  // device read of a line owned elsewhere
  SimResult r = m.run();
  EXPECT_TRUE(r.healthy()) << (r.errors.empty() ? "" : r.errors.front());
  EXPECT_EQ(r.transactions_done, 1);
  // The owner was downgraded, not invalidated.
  EXPECT_TRUE(m.check_quiescent_state().empty());
}

TEST(MachineScripted, CoherentIoWriteInvalidatesSharers) {
  SimConfig cfg;
  cfg.n_quads = 3;
  cfg.n_addrs = 3;
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_line(0, "SI", {1, 2});
  m.script(0, "iowr", 0);
  m.script(1, "prd", 0);  // the reader must observe the device write
  SimResult r = m.run();
  EXPECT_TRUE(r.healthy()) << (r.errors.empty() ? "" : r.errors.front());
  EXPECT_EQ(r.transactions_done, 2);
}

TEST(MachineScripted, AtomicOnOwnedLine) {
  SimConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 2;
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_line(0, "MESI", {1});
  m.script(0, "patomic", 0);  // atomic against a line modified elsewhere
  m.script(1, "prd", 0);      // reader sees the atomic's result
  SimResult r = m.run();
  EXPECT_TRUE(r.healthy()) << (r.errors.empty() ? "" : r.errors.front());
  EXPECT_EQ(r.transactions_done, 2);
}

TEST(MachineScripted, EvictionShrinksSharerSet) {
  SimConfig cfg;
  cfg.n_quads = 3;
  cfg.n_addrs = 3;
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_line(0, "SI", {0, 1, 2});
  m.script(1, "pevict", 0);
  SimResult r = m.run();
  EXPECT_TRUE(r.healthy()) << (r.errors.empty() ? "" : r.errors.front());
  EXPECT_EQ(r.transactions_done, 1);
  EXPECT_TRUE(m.check_quiescent_state().empty());
}

TEST(MachineQuiescent, SetLineStatesAreConsistent) {
  SimConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 4;
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_line(0, "SI", {0, 1});
  m.set_line(1, "MESI", {1});
  EXPECT_TRUE(m.check_quiescent_state().empty());
}

class MachineRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(MachineRandom, RandomWorkloadHealthyUnderV5Fix) {
  SimConfig cfg;
  cfg.n_quads = 3;
  cfg.n_addrs = 4;
  cfg.channel_capacity = 1 + GetParam() % 3;
  cfg.transactions_per_node = 40;
  cfg.seed = GetParam();
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_memory_latency(static_cast<int>(GetParam() % 4));
  m.enable_random_workload();
  SimResult r = m.run();
  EXPECT_TRUE(r.completed) << "steps=" << r.steps;
  EXPECT_FALSE(r.deadlocked) << r.deadlock_report;
  EXPECT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(r.transactions_done, 3 * 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineRandom, ::testing::Range(1u, 16u));

}  // namespace
}  // namespace ccsql::sim
