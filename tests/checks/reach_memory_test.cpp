// The explorer's memory accounting: the tracked peak per state on the
// 37,743-state space stays under a recorded bound, is the same at any
// --jobs, reaches MemTracker's kExplorer category, and a max_bytes budget
// ends the search as a budget verdict instead of running out of memory.
#include <gtest/gtest.h>

#include "checks/reach.hpp"
#include "checks/vcg.hpp"
#include "obs/mem.hpp"
#include "protocol/asura/asura.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

/// 2 quads x 1 address x 2 ops per node, capacity 1: 37,743 states.
ReachParallelConfig two_op_space(std::size_t jobs) {
  ReachParallelConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 1;
  cfg.ops_per_node = 2;
  cfg.jobs = jobs;
  return cfg;
}

TEST(ReachMemory, PeakBytesPerStateStaysUnderTheRecordedBound) {
  using Cat = obs::MemTracker::Category;
  const obs::MemTracker& tracker = obs::MemTracker::global();
  const std::uint64_t live_before = tracker.usage(Cat::kExplorer).live;
  const ReachParallelResult r = explore_parallel(
      spec(), spec().assignment(asura::kAssignV5Fix), two_op_space(1));
  ASSERT_TRUE(r.complete);
  ASSERT_EQ(r.states, 37'743u);
  ASSERT_EQ(r.transitions, 84'255u);

  // Measured: 8,364,144 tracked bytes at the peak, 221 B per state.  The
  // bound is that figure x 1.25; tracked bytes are a function of the
  // search alone, so this cannot flake.
  constexpr std::uint64_t kMaxBytesPerState = 276;
  EXPECT_LE(r.peak_bytes / r.states, kMaxBytesPerState)
      << r.peak_bytes << " bytes peak";
  EXPECT_GT(r.peak_bytes, 0u);

  // The category saw the search and released it afterwards.
  EXPECT_GE(tracker.usage(Cat::kExplorer).peak, r.peak_bytes);
  EXPECT_EQ(tracker.usage(Cat::kExplorer).live, live_before);

  // Lane buffers count at the size they fill, so the figure does not
  // depend on how morsels spread over lanes.
  const ReachParallelResult r4 = explore_parallel(
      spec(), spec().assignment(asura::kAssignV5Fix), two_op_space(4));
  EXPECT_EQ(r4.states, r.states);
  EXPECT_EQ(r4.peak_bytes, r.peak_bytes);
}

TEST(ReachMemory, ByteBudgetEndsTheSearchAsABudgetVerdict) {
  std::vector<ControllerTableRef> refs;
  for (const auto& c : spec().controllers()) {
    refs.push_back(
        ControllerTableRef::from_spec(*c, spec().database().get(c->name())));
  }
  const ChannelAssignment& v5 = spec().assignment(asura::kAssignV5);
  const std::vector<VcgCycle> cycles = DeadlockAnalysis(refs, v5).cycles();
  ASSERT_FALSE(cycles.empty());

  ReachParallelConfig cfg = two_op_space(0);
  cfg.max_bytes = 256 * 1024;
  const ReachParallelResult r = explore_parallel(spec(), v5, cfg);
  EXPECT_FALSE(r.complete);
  EXPECT_GT(r.peak_bytes, cfg.max_bytes);  // stopped at the first wave past it
  EXPECT_LT(r.states, 36'741u);  // the complete V5 search's count

  const auto result = classify_cycles(spec(), v5, cycles, cfg);
  ASSERT_EQ(result.size(), cycles.size());
  for (const CycleClassification& c : result) {
    EXPECT_EQ(c.verdict, CycleVerdict::kBudget);
    EXPECT_EQ(c.states_searched, r.states);
    EXPECT_TRUE(c.witness.empty());
  }

  // The default, 0, is unlimited.
  EXPECT_TRUE(explore_parallel(spec(), v5, two_op_space(0)).complete);
}

}  // namespace
}  // namespace ccsql
