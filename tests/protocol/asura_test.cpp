#include "protocol/asura/asura.hpp"

#include <gtest/gtest.h>

#include "relational/format.hpp"

namespace ccsql {
namespace {

/// One spec shared by all tests in this file: generation is deterministic
/// and the spec is immutable after construction.
const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

const Database& db() { return spec().database(); }

TEST(Asura, HasEightControllerTables) {
  EXPECT_EQ(spec().controllers().size(), 8u);
  for (const char* name :
       {asura::kDirectory, asura::kMemory, asura::kNode, asura::kCache,
        asura::kRemoteSnoop, asura::kRac, asura::kIo, asura::kInterrupt}) {
    EXPECT_TRUE(db().has(name)) << name;
    EXPECT_GT(db().get(name).row_count(), 0u) << name;
  }
}

TEST(Asura, MessageCatalogAroundFifty) {
  // Paper, section 2: "Around 50 different types of messages".  Ours is
  // slightly above: the published vocabulary plus the race-handling
  // messages dynamic validation forced (wbcancel, nack, gdone) and the
  // replacement/atomic transactions.
  EXPECT_GE(spec().messages().size(), 45u);
  EXPECT_LE(spec().messages().size(), 60u);
}

TEST(Asura, DirectoryTableShape) {
  // Paper, section 3: D has 30 columns; rows within the same order of
  // magnitude as the published ~500 (our transaction set is the published
  // subset, so fewer rows).
  const Table& d = db().get(asura::kDirectory);
  EXPECT_EQ(d.column_count(), 30u);
  EXPECT_GE(d.row_count(), 100u);
  EXPECT_LE(d.row_count(), 600u);
  // 10 inputs then 20 outputs.
  std::size_t inputs = 0;
  for (const auto& col : d.schema().columns()) {
    if (col.kind == ColumnKind::kInput) ++inputs;
  }
  EXPECT_EQ(inputs, 10u);
}

TEST(Asura, BusyStatesAllReachable) {
  // Every busy state appears as some row's next state, and every busy
  // state has at least one exit (a row consuming it).
  Database cat;
  cat.put("D", db().get(asura::kDirectory));
  cat.functions() = db().functions();
  for (const auto& b : asura::busy_states()) {
    EXPECT_GT(
        cat.query("select * from D where nxtbdirst = \"" + b + "\"")
            .row_count(),
        0u)
        << "unreachable busy state " << b;
    EXPECT_GT(cat.query("select * from D where bdirst = \"" + b +
                        "\" and isresponse(inmsg)")
                  .row_count(),
              0u)
        << "busy state with no exit " << b;
  }
}

TEST(Asura, AllInvariantsHold) {
  // Paper, section 4.3: around 50 invariants, all checked clean.
  EXPECT_GE(spec().invariants().size(), 45u);
  for (const auto& inv : spec().invariants()) {
    EXPECT_TRUE(db().check_empty(inv.sql)) << inv.name;
  }
}

TEST(Asura, Figure2ReadexAtSiRow) {
  // Figure 2: readex finds the line SI at a remote node; D sends sinv to
  // remote and mread to memory simultaneously and enters the busy state
  // awaiting snoop + data responses.
  Database cat;
  cat.put("D", db().get(asura::kDirectory));
  Table row = cat.query(
      "select * from D where inmsg = readex and dirst = SI and "
      "bdirst = \"I\"").rows;
  ASSERT_EQ(row.row_count(), 2u);  // dirpv one / gone
  for (std::size_t r = 0; r < row.row_count(); ++r) {
    EXPECT_EQ(row.at(r, "remmsg"), V("sinv"));
    EXPECT_EQ(row.at(r, "memmsg"), V("mread"));
    EXPECT_EQ(row.at(r, "nxtbdirst"), V("Busy-rx-sd"));
    EXPECT_EQ(row.at(r, "bdirop"), V("alloc"));
  }
}

TEST(Asura, Figure3BusyProgression) {
  // Figure 3: Busy-sd -data-> Busy-s; Busy-sd -idone(last)-> Busy-d;
  // completion updates state to MESI and transfers ownership.
  Database cat;
  cat.put("D", db().get(asura::kDirectory));
  Table t1 = cat.query(
      "select nxtbdirst from D where inmsg = \"data\" and "
      "bdirst = \"Busy-rx-sd\"").rows;
  ASSERT_GE(t1.row_count(), 1u);
  EXPECT_EQ(t1.at(0, 0), V("Busy-rx-s"));

  Table t2 = cat.query(
      "select nxtbdirst from D where inmsg = idone and "
      "bdirst = \"Busy-rx-sd\" and bdirpv = one").rows;
  ASSERT_EQ(t2.row_count(), 1u);
  EXPECT_EQ(t2.at(0, 0), V("Busy-rx-d"));

  // The grant: data at Busy-rx-d responds compl+data and holds the line
  // until the requester's acknowledgement installs MESI and transfers
  // ownership (our grant-acknowledged extension of the Figure 3 flow).
  Table grant = cat.query(
      "select locmsg, nxtbdirst, cmpl from D where "
      "inmsg = \"data\" and bdirst = \"Busy-rx-d\"").rows;
  ASSERT_EQ(grant.row_count(), 1u);
  EXPECT_EQ(grant.at(0, "locmsg"), V("compl"));
  EXPECT_EQ(grant.at(0, "nxtbdirst"), V("Busy-rx-g"));
  EXPECT_EQ(grant.at(0, "cmpl"), V("cont"));

  Table done = cat.query(
      "select nxtdirst, nxtdirpv, bdirop, cmpl from D where "
      "inmsg = gdone and bdirst = \"Busy-rx-g\"").rows;
  ASSERT_EQ(done.row_count(), 1u);
  EXPECT_EQ(done.at(0, "nxtdirst"), V("MESI"));
  EXPECT_EQ(done.at(0, "nxtdirpv"), V("repl"));
  EXPECT_EQ(done.at(0, "bdirop"), V("free"));
  EXPECT_EQ(done.at(0, "cmpl"), V("done"));
}

TEST(Asura, Figure4WitnessRows) {
  // The two controller-table rows behind the Figure 4 deadlock:
  //  R1 (memory): processing wb produces compl home->home.
  //  R2 (directory): processing idone at the owner-invalidation state
  //      produces mread home->home.
  Database cat;
  cat.put("M", db().get(asura::kMemory));
  cat.put("D", db().get(asura::kDirectory));
  Table r1 = cat.query(
      "select outmsg, outmsgsrc, outmsgdest from M where inmsg = wb").rows;
  ASSERT_EQ(r1.row_count(), 1u);
  EXPECT_EQ(r1.at(0, "outmsg"), V("compl"));
  EXPECT_EQ(r1.at(0, "outmsgsrc"), V("home"));
  EXPECT_EQ(r1.at(0, "outmsgdest"), V("home"));

  Table r2 = cat.query(
      "select memmsg, memmsgsrc, memmsgdest, inmsgsrc from D where "
      "inmsg = idone and bdirst = \"Busy-rx-si\"").rows;
  ASSERT_EQ(r2.row_count(), 1u);
  EXPECT_EQ(r2.at(0, "memmsg"), V("mread"));
  EXPECT_EQ(r2.at(0, "memmsgsrc"), V("home"));
  EXPECT_EQ(r2.at(0, "memmsgdest"), V("home"));
  EXPECT_EQ(r2.at(0, "inmsgsrc"), V("remote"));
}

TEST(Asura, RetryWheneverBusy) {
  Database cat;
  cat.put("D", db().get(asura::kDirectory));
  cat.functions() = db().functions();
  Table t = cat.query(
      "select * from D where isrequest(inmsg) and not bdirst = \"I\"").rows;
  EXPECT_GT(t.row_count(), 50u);
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    EXPECT_EQ(t.at(r, "locmsg"), V("retry"));
    EXPECT_TRUE(t.at(r, "remmsg").is_null());
    EXPECT_TRUE(t.at(r, "memmsg").is_null());
  }
}

TEST(Asura, DeterministicLookup) {
  // The simulator depends on (inmsg, dirst, dirlookup, dirpv, bdirst,
  // bdirpv) selecting exactly one row: check there are no duplicate input
  // combinations (dirlookup disambiguates stale writebacks / evictions).
  const Table& d = db().get(asura::kDirectory);
  Table inputs = d.project(
      {"inmsg", "dirst", "dirlookup", "dirpv", "bdirst", "bdirpv"},
      /*distinct=*/false);
  EXPECT_EQ(inputs.row_count(), inputs.distinct().row_count());
}

TEST(Asura, ChannelAssignmentsPresent) {
  EXPECT_EQ(spec().assignments().size(), 3u);
  const auto& v4 = spec().assignment(asura::kAssignV4);
  const auto& v5 = spec().assignment(asura::kAssignV5);
  const auto& v5fix = spec().assignment(asura::kAssignV5Fix);
  EXPECT_EQ(v4.channels().size(), 4u);
  EXPECT_EQ(v5.channels().size(), 5u);
  EXPECT_EQ(v5fix.channels().size(), 4u);
  // Paper section 4.2: VC4 carries requests from home directory to home
  // memory in V5.
  EXPECT_EQ(v5.vc_for(V("mread"), V("home"), V("home")), V("VC4"));
  EXPECT_EQ(v5.vc_for(V("wb"), V("home"), V("home")), V("VC4"));
  EXPECT_EQ(v4.vc_for(V("mread"), V("home"), V("home")), V("VC0"));
  // The fix: dedicated path, no virtual channel.
  EXPECT_EQ(v5fix.vc_for(V("mread"), V("home"), V("home")), std::nullopt);
  // Published classification: requests local->home on VC0, snoops on VC1,
  // remote responses on VC2, local responses on VC3.
  EXPECT_EQ(v5.vc_for(V("readex"), V("local"), V("home")), V("VC0"));
  EXPECT_EQ(v5.vc_for(V("sinv"), V("home"), V("remote")), V("VC1"));
  EXPECT_EQ(v5.vc_for(V("idone"), V("remote"), V("home")), V("VC2"));
  EXPECT_EQ(v5.vc_for(V("compl"), V("home"), V("local")), V("VC3"));
  EXPECT_EQ(v5.vc_for(V("compl"), V("home"), V("home")), V("VC2"));
}

TEST(Asura, EveryTableMessageIsInCatalog) {
  // Vocabulary closure: every message value appearing in a message column
  // of any controller table is a catalogued message.
  for (const auto& c : spec().controllers()) {
    const Table& t = db().get(c->name());
    for (const auto& triple : c->message_triples()) {
      const std::size_t col = t.schema().index_of(triple.msg);
      for (std::size_t r = 0; r < t.row_count(); ++r) {
        const Value m = t.at(r, col);
        if (m.is_null()) continue;
        EXPECT_TRUE(spec().messages().has(m))
            << c->name() << "." << triple.msg << " row " << r << ": "
            << m.str();
      }
    }
  }
}

TEST(Asura, OutputsProducedSomewhereAreConsumedSomewhere) {
  // Cross-controller closure: every inter-role message some controller
  // emits is accepted as an input by some controller (role-level).
  std::set<std::string> consumed;
  for (const auto& c : spec().controllers()) {
    const Table& t = db().get(c->name());
    const MessageTriple* in = c->input_triple();
    ASSERT_NE(in, nullptr) << c->name();
    const std::size_t col = t.schema().index_of(in->msg);
    for (std::size_t r = 0; r < t.row_count(); ++r) {
      consumed.insert(std::string(t.at(r, col).str()));
    }
  }
  // Messages consumed by a processor / device / cache-data sink rather
  // than a controller table.
  const std::set<std::string> sinks = {"pdata", "pdone", "devdata",
                                       "devdone", "hit", "miss", "astate",
                                       "nack"};
  for (const auto& c : spec().controllers()) {
    const Table& t = db().get(c->name());
    for (const auto& triple : c->output_triples()) {
      const std::size_t col = t.schema().index_of(triple.msg);
      for (std::size_t r = 0; r < t.row_count(); ++r) {
        const Value m = t.at(r, col);
        if (m.is_null()) continue;
        const std::string name(m.str());
        EXPECT_TRUE(consumed.count(name) || sinks.count(name))
            << c->name() << " emits unconsumed message " << name;
      }
    }
  }
}

TEST(Asura, FaultInjectionInvariantCatchesCorruption) {
  // Corrupt the debugged table (MESI with an empty presence vector) and
  // check the paper's first invariant flags it.
  Table d = db().get(asura::kDirectory);
  std::vector<Value> row(d.row(0).begin(), d.row(0).end());
  row[d.schema().index_of("dirst")] = V("MESI");
  row[d.schema().index_of("dirpv")] = V("zero")  ;
  d.append(RowView(row));
  Database cat;
  cat.put("D", std::move(d));
  const auto& inv = spec().invariants().front();
  ASSERT_EQ(inv.name, "dir-state-pv-consistency");
  EXPECT_FALSE(cat.check_empty(inv.sql));
}

TEST(Asura, FaultInjectionSerializationCatchesMissingRetry) {
  // A row accepting a request on a busy line without retry violates the
  // serialization invariant.
  Table d = db().get(asura::kDirectory);
  std::vector<Value> row(d.row(0).begin(), d.row(0).end());
  row[d.schema().index_of("inmsg")] = V("readex");
  row[d.schema().index_of("bdirst")] = V("Busy-wb-m");
  row[d.schema().index_of("locmsg")] = null_value();
  d.append(RowView(row));
  Database cat;
  cat.put("D", std::move(d));
  cat.functions() = db().functions();
  bool found = false;
  for (const auto& inv : spec().invariants()) {
    if (inv.name == "dir-serializes-requests") {
      EXPECT_FALSE(cat.check_empty(inv.sql));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ccsql
