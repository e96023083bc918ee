#include <gtest/gtest.h>

#include "sim/types.hpp"

namespace ccsql::sim {
namespace {

Value vc(const char* name) { return Symbol::intern(name); }

TEST(SimCounters, MergeSumsAdditiveFields) {
  SimCounters a;
  a.msgs_sent = 10;
  a.msgs_recv = 9;
  a.table_hits = 8;
  a.table_misses = 1;
  a.send_stalls = 2;
  a.ops_injected = 5;
  a.cache_hits = 3;
  a.cycles = 120;
  a.mem_cycles = 100;
  a.bus_cycles = 20;
  a.c2c_cycles = 0;
  a.per_vc_sent[vc("VC0")] = 4;
  a.per_vc_sent[Value{}] = 6;

  SimCounters b;
  b.msgs_sent = 1;
  b.msgs_recv = 2;
  b.table_hits = 3;
  b.table_misses = 4;
  b.send_stalls = 5;
  b.ops_injected = 6;
  b.cache_hits = 7;
  b.cycles = 8;
  b.mem_cycles = 1;
  b.bus_cycles = 2;
  b.c2c_cycles = 5;
  b.per_vc_sent[vc("VC0")] = 1;
  b.per_vc_sent[vc("VC2")] = 9;

  a += b;
  EXPECT_EQ(a.msgs_sent, 11u);
  EXPECT_EQ(a.msgs_recv, 11u);
  EXPECT_EQ(a.table_hits, 11u);
  EXPECT_EQ(a.table_misses, 5u);
  EXPECT_EQ(a.send_stalls, 7u);
  EXPECT_EQ(a.ops_injected, 11u);
  EXPECT_EQ(a.cache_hits, 10u);
  EXPECT_EQ(a.cycles, 128u);
  EXPECT_EQ(a.mem_cycles, 101u);
  EXPECT_EQ(a.bus_cycles, 22u);
  EXPECT_EQ(a.c2c_cycles, 5u);
  EXPECT_EQ(a.per_vc_sent[vc("VC0")], 5u);
  EXPECT_EQ(a.per_vc_sent[vc("VC2")], 9u);
  EXPECT_EQ(a.per_vc_sent[Value{}], 6u);
  EXPECT_EQ(a.events(), 33u);
}

TEST(SimCounters, MergeZeroesRates) {
  // events_per_sec is a rate: the merged rate is recomputed by the sweep
  // from its own wall clock, so operator+= must not carry either operand's
  // value into the sum (that would make merges depend on timing).
  SimCounters a;
  a.events_per_sec = 123456;
  SimCounters b;
  b.events_per_sec = 654321;
  a += b;
  EXPECT_EQ(a.events_per_sec, 0u);
}

TEST(SimCounters, MergeWithDefaultIsIdentityExceptRate) {
  SimCounters a;
  a.msgs_sent = 7;
  a.cycles = 14;
  a.per_vc_sent[vc("VC1")] = 7;
  SimCounters sum;
  sum += a;
  EXPECT_EQ(sum.msgs_sent, a.msgs_sent);
  EXPECT_EQ(sum.cycles, a.cycles);
  EXPECT_EQ(sum.per_vc_sent, a.per_vc_sent);
  EXPECT_EQ(sum.events(), a.events());
}

TEST(SimCounters, SummaryListsCycleBreakdown) {
  SimCounters c;
  c.cycles = 107;
  c.mem_cycles = 100;
  c.bus_cycles = 2;
  c.c2c_cycles = 5;
  const std::string s = c.summary();
  EXPECT_NE(s.find("sim.cycles"), std::string::npos);
  EXPECT_NE(s.find("sim.mem_cycles"), std::string::npos);
  EXPECT_NE(s.find("sim.bus_cycles"), std::string::npos);
  EXPECT_NE(s.find("sim.c2c_cycles"), std::string::npos);
}

TEST(CycleModel, CacheToCacheFollowsFormula) {
  // 4 words/line: 4N + (P+1).
  EXPECT_EQ(CycleModel::c2c_cycles(4), 4 * 4 + (4 + 1));
  EXPECT_EQ(CycleModel::c2c_cycles(2), 4 * 4 + (2 + 1));
}

TEST(Workload, ParseRoundTrips) {
  for (Workload w : {Workload::kRandom, Workload::kLock,
                     Workload::kProducerConsumer, Workload::kFalseSharing,
                     Workload::kStreaming}) {
    const auto parsed = parse_workload(workload_name(w));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, w);
  }
  EXPECT_EQ(parse_workload("pc"), Workload::kProducerConsumer);
  EXPECT_EQ(parse_workload("fs"), Workload::kFalseSharing);
  EXPECT_EQ(parse_workload("stream"), Workload::kStreaming);
  EXPECT_FALSE(parse_workload("bogus").has_value());
}

}  // namespace
}  // namespace ccsql::sim
