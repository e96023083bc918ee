#include "checks/vcg.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "protocol/asura/asura.hpp"
#include "relational/error.hpp"

namespace ccsql {
namespace {

/// A two-controller toy protocol: P consumes req on VCa and emits fwd on
/// VCb; Q consumes fwd on VCb and emits ack back on VCa -> cycle VCa<->VCb.
struct Toy {
  Table p{Schema::of({"inmsg", "insrc", "indst", "outmsg", "outsrc",
                      "outdst"})};
  Table q{Schema::of({"inmsg", "insrc", "indst", "outmsg", "outsrc",
                      "outdst"})};
  ChannelAssignment v{"toy"};
  std::vector<ControllerTableRef> tables;

  explicit Toy(bool close_the_loop) {
    p.append({V("req"), V("local"), V("home"), V("fwd"), V("home"),
              V("remote")});
    q.append({V("fwd"), V("home"), V("remote"), V("ack"), V("remote"),
              V("home")});
    v.assign("req", "local", "home", "VCa");
    v.assign("fwd", "home", "remote", "VCb");
    if (close_the_loop) {
      // ack rides the same channel as req: VCb depends back on VCa.
      v.assign("ack", "remote", "home", "VCa");
      // and processing an ack at P emits a req again.
      p.append({V("ack"), V("remote"), V("home"), V("req"), V("local"),
                V("home")});
    } else {
      v.assign("ack", "remote", "home", "VCc");
    }
    tables.push_back(make_ref("P", p));
    tables.push_back(make_ref("Q", q));
  }

  static ControllerTableRef make_ref(std::string name, const Table& t) {
    ControllerTableRef ref;
    ref.name = std::move(name);
    ref.table = &t;
    ref.input = MessageTriple{"inmsg", "insrc", "indst", true};
    ref.outputs = {MessageTriple{"outmsg", "outsrc", "outdst", false}};
    return ref;
  }
};

TEST(DeadlockAnalysis, ToyAcyclicAssignment) {
  Toy toy(/*close_the_loop=*/false);
  DeadlockAnalysis analysis(toy.tables, toy.v);
  EXPECT_TRUE(analysis.deadlock_free());
  EXPECT_FALSE(analysis.edges().empty());
  EXPECT_NE(analysis.report().find("deadlock-free"), std::string::npos);
}

TEST(DeadlockAnalysis, ToyCyclicAssignmentFindsCycle) {
  Toy toy(/*close_the_loop=*/true);
  DeadlockAnalysis analysis(toy.tables, toy.v);
  ASSERT_FALSE(analysis.deadlock_free());
  // The VCa -> VCb -> VCa cycle must be reported with witnesses.
  bool found = false;
  for (const auto& c : analysis.cycles()) {
    std::set<std::string> chans;
    for (Value ch : c.channels) chans.insert(std::string(ch.str()));
    if (chans == std::set<std::string>{"VCa", "VCb"}) {
      found = true;
      EXPECT_EQ(c.witnesses.size(), 2u);
    }
  }
  EXPECT_TRUE(found);
  auto cyc = analysis.cyclic_channels();
  EXPECT_GE(cyc.size(), 2u);
}

TEST(DeadlockAnalysis, DedicatedPathRemovesDependency) {
  Toy toy(/*close_the_loop=*/true);
  toy.v.unassign("ack", "remote", "home");  // dedicated path for ack
  DeadlockAnalysis analysis(toy.tables, toy.v);
  EXPECT_TRUE(analysis.deadlock_free());
}

TEST(DeadlockAnalysis, ProtocolDependencyTableColumns) {
  Toy toy(true);
  DeadlockAnalysis analysis(toy.tables, toy.v);
  Table t = analysis.protocol_dependency_table();
  ASSERT_EQ(t.column_count(), 8u);
  EXPECT_EQ(t.schema().column(0).name, "m1");
  EXPECT_EQ(t.schema().column(7).name, "v2");
  EXPECT_GT(t.row_count(), 0u);
  EXPECT_EQ(t.row_count(), t.distinct().row_count());
}

TEST(DeadlockAnalysis, MissingInputTripleThrows) {
  ControllerSpec spec("X");
  spec.add_input("a", {"x"});
  Table t = spec.generate(nullptr);
  EXPECT_THROW(ControllerTableRef::from_spec(spec, t), Error);
}

// ---- ASURA: the paper's three iterations ------------------------------------

class AsuraVcg : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = asura::make_asura().release();
    for (const auto& c : spec_->controllers()) {
      tables_.push_back(ControllerTableRef::from_spec(
          *c, spec_->database().get(c->name())));
    }
  }

  static const ProtocolSpec* spec_;
  static std::vector<ControllerTableRef> tables_;
};

const ProtocolSpec* AsuraVcg::spec_ = nullptr;
std::vector<ControllerTableRef> AsuraVcg::tables_;

TEST_F(AsuraVcg, V4HasCyclesAtHome) {
  // Paper, section 4.2: the initial four-channel assignment produced
  // several cycles, most involving the directory and memory controllers at
  // the home node (VC0 carries both local->home and directory->memory
  // requests).
  DeadlockAnalysis analysis(tables_, spec_->assignment(asura::kAssignV4));
  ASSERT_FALSE(analysis.deadlock_free());
  auto cyc = analysis.cyclic_channels();
  EXPECT_NE(std::find(cyc.begin(), cyc.end(), V("VC0")), cyc.end());
}

TEST_F(AsuraVcg, V5HasTheFigure4Cycle) {
  DeadlockAnalysis analysis(tables_, spec_->assignment(asura::kAssignV5));
  ASSERT_FALSE(analysis.deadlock_free());
  // The VC2/VC4 cycle of Figure 4.
  bool found = false;
  for (const auto& c : analysis.cycles()) {
    std::set<std::string> chans;
    for (Value ch : c.channels) chans.insert(std::string(ch.str()));
    if (chans == std::set<std::string>{"VC2", "VC4"}) found = true;
  }
  EXPECT_TRUE(found) << analysis.report();
  // VC0 is no longer part of any cycle: the home-request interference was
  // fixed by adding VC4.
  auto cyc = analysis.cyclic_channels();
  EXPECT_EQ(std::find(cyc.begin(), cyc.end(), V("VC0")), cyc.end());
}

TEST_F(AsuraVcg, V5ContainsThePaperR3Row) {
  // Section 4.2: composing R1 (memory: wb -> compl) with the placed R2'
  // (directory: idone -> mread under L != H = R) while ignoring messages
  // yields R3 = (wb, home, home, VC4, mread, home, home, VC4).
  DeadlockAnalysis analysis(tables_, spec_->assignment(asura::kAssignV5));
  bool found_r3 = false;
  for (const auto& r : analysis.protocol_rows()) {
    if (r.m1 == V("wb") && r.s1 == V("home") && r.d1 == V("home") &&
        r.v1 == V("VC4") && r.m2 == V("mread") && r.s2 == V("home") &&
        r.d2 == V("home") && r.v2 == V("VC4")) {
      found_r3 = true;
      EXPECT_TRUE(r.composed);
      EXPECT_TRUE(r.ignored_message);
    }
  }
  EXPECT_TRUE(found_r3);
}

TEST_F(AsuraVcg, V5FixIsDeadlockFree) {
  DeadlockAnalysis analysis(tables_, spec_->assignment(asura::kAssignV5Fix));
  EXPECT_TRUE(analysis.deadlock_free()) << analysis.report();
}

TEST_F(AsuraVcg, Figure4WitnessesSurviveWithoutPlacements) {
  // The core VC2 -> VC4 -> VC2 two-cycle does not require the placement
  // relaxation (both witness rows live at home already).
  DeadlockOptions opts;
  opts.use_placements = false;
  DeadlockAnalysis analysis(tables_, spec_->assignment(asura::kAssignV5),
                            opts);
  EXPECT_FALSE(analysis.deadlock_free());
}

TEST_F(AsuraVcg, CompositionRoundsConverge) {
  // Footnote 2: in practice one composition round suffices — a second
  // round adds no new VCG edges.
  DeadlockOptions one;
  one.composition_rounds = 1;
  DeadlockOptions many;
  many.composition_rounds = 5;
  DeadlockAnalysis a1(tables_, spec_->assignment(asura::kAssignV5), one);
  DeadlockAnalysis a2(tables_, spec_->assignment(asura::kAssignV5), many);
  EXPECT_EQ(a1.edges().size(), a2.edges().size());
  EXPECT_EQ(a1.cycles().size(), a2.cycles().size());
}

TEST_F(AsuraVcg, ControllerRowsAreSubsetOfProtocolRows) {
  DeadlockAnalysis analysis(tables_, spec_->assignment(asura::kAssignV5));
  EXPECT_GE(analysis.protocol_rows().size(), 1u);
  // Every controller row's 8-tuple appears in the protocol table.
  Table proto = analysis.protocol_dependency_table();
  auto contains = [&proto](const std::vector<Value>& row) {
    for (std::size_t i = 0; i < proto.row_count(); ++i) {
      const RowView p = proto.row(i);
      if (std::equal(row.begin(), row.end(), p.begin(), p.end())) return true;
    }
    return false;
  };
  for (const auto& r : analysis.controller_rows()) {
    std::vector<Value> row{r.m1, r.s1, r.d1, r.v1, r.m2, r.s2, r.d2, r.v2};
    EXPECT_TRUE(contains(row)) << r.origin;
  }
}

}  // namespace
}  // namespace ccsql
