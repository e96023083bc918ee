// The generality claim (paper, section 1): "The approach can be easily
// applied to other cache coherence protocols such as those described in
// [2, 10]".  This exercises the full methodology — generation, SQL
// invariants, deadlock analysis — on a second, structurally different
// protocol: a split-transaction snooping-bus MSI design.
#include "protocol/snoopbus/snoopbus.hpp"

#include <gtest/gtest.h>

#include "checks/invariant.hpp"
#include "checks/vcg.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = snoopbus::make_snoopbus();
  return *s;
}

TEST(Snoopbus, TablesGenerate) {
  const Database& db = spec().database();
  EXPECT_EQ(spec().controllers().size(), 3u);
  EXPECT_GT(db.get(snoopbus::kCache).row_count(), 20u);
  EXPECT_EQ(db.get(snoopbus::kMemory).row_count(), 6u);
  EXPECT_EQ(db.get(snoopbus::kArbiter).row_count(), 3u);
}

TEST(Snoopbus, AllInvariantsHold) {
  InvariantChecker checker(spec().database());
  auto results = checker.check_all(spec().invariants());
  EXPECT_GE(results.size(), 8u);
  EXPECT_TRUE(InvariantChecker::all_hold(results))
      << InvariantChecker::report(results);
}

TEST(Snoopbus, MsiTransitionsAreTheTextbookOnes) {
  Database cat;
  cat.put("SC", spec().database().get(snoopbus::kCache));
  // Load miss: GetS on the bus, transient ISd.
  Table miss = cat.query(
      "select busmsg, nxtcst from SC where inmsg = ld and cst = \"I\"").rows;
  ASSERT_EQ(miss.row_count(), 1u);
  EXPECT_EQ(miss.at(0, "busmsg"), V("GetS"));
  EXPECT_EQ(miss.at(0, "nxtcst"), V("ISd"));
  // Foreign GetM invalidates a shared copy; a modified snooper also
  // sources the data.
  Table inv = cat.query(
      "select datamsg, nxtcst from SC where inmsg = GetM and own = no and "
      "cst = \"M\"").rows;
  ASSERT_EQ(inv.row_count(), 1u);
  EXPECT_EQ(inv.at(0, "datamsg"), V("DataOwner"));
  EXPECT_EQ(inv.at(0, "nxtcst"), V("I"));
}

TEST(Snoopbus, SharedBusAssignmentIsCyclic) {
  std::vector<ControllerTableRef> refs;
  for (const auto& c : spec().controllers()) {
    refs.push_back(ControllerTableRef::from_spec(
        *c, spec().database().get(c->name())));
  }
  DeadlockAnalysis analysis(refs,
                            spec().assignment(snoopbus::kAssignShared));
  ASSERT_FALSE(analysis.deadlock_free());
  // The witness: memory answers a snooped request on the same channel
  // class the request occupies.
  bool found = false;
  for (const auto& c : analysis.cycles()) {
    for (const auto& w : c.witnesses) {
      if (w.m2 == V("DataMem")) found = true;
    }
  }
  EXPECT_TRUE(found) << analysis.report();
}

TEST(Snoopbus, SplitBusAssignmentIsDeadlockFree) {
  std::vector<ControllerTableRef> refs;
  for (const auto& c : spec().controllers()) {
    refs.push_back(ControllerTableRef::from_spec(
        *c, spec().database().get(c->name())));
  }
  DeadlockAnalysis analysis(refs, spec().assignment(snoopbus::kAssignSplit));
  EXPECT_TRUE(analysis.deadlock_free()) << analysis.report();
}

TEST(Snoopbus, FaultInjectionCaught) {
  // Breaking the owner-sources-data rule trips the invariant.
  Table sc = spec().database().get(snoopbus::kCache);
  Table corrupted(sc.schema_ptr());
  const std::size_t dm = sc.schema().index_of("datamsg");
  const std::size_t im = sc.schema().index_of("inmsg");
  const std::size_t ow = sc.schema().index_of("own");
  const std::size_t cs = sc.schema().index_of("cst");
  for (std::size_t r = 0; r < sc.row_count(); ++r) {
    std::vector<Value> row(sc.row(r).begin(), sc.row(r).end());
    if (row[im] == V("GetS") && row[ow] == V("no") && row[cs] == V("M")) {
      row[dm] = null_value();  // owner silently drops the request
    }
    corrupted.append(RowView(row));
  }
  Database cat;
  cat.put("SC", std::move(corrupted));
  bool caught = false;
  for (const auto& inv : spec().invariants()) {
    if (inv.name == "sb-owner-answers") {
      caught = !cat.check_empty(inv.sql);
    }
  }
  EXPECT_TRUE(caught);
}

}  // namespace
}  // namespace ccsql
