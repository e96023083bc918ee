// Copy-on-write snapshots of the catalog (Database::snapshot): immutable
// views, generation tracking, the active-handles gauge, and query parity
// with the live database.
#include "relational/database.hpp"

#include <gtest/gtest.h>

#include "relational/error.hpp"
#include "relational/format.hpp"
#include "relational/parser.hpp"

namespace ccsql {
namespace {

Database small_db() {
  Catalog cat;
  Table d(Schema::of({"dirst", "dirpv"}));
  d.append({V("MESI"), V("one")});
  d.append({V("SI"), V("gone")});
  d.append({V("I"), V("zero")});
  cat.put("D", std::move(d));
  return Database(std::move(cat));
}

TEST(Snapshot, SeesFrozenContentsAcrossTableReplacement) {
  Database db = small_db();
  Snapshot snap = db.snapshot();
  ASSERT_TRUE(snap.valid());
  const std::string before = to_csv(snap.catalog().get("D"));

  Table fresh(Schema::of({"dirst", "dirpv"}));
  fresh.append({V("X"), V("y")});
  db.put("D", std::move(fresh));

  // The snapshot still reads the generation it captured; the live database
  // reads the replacement.
  EXPECT_EQ(to_csv(snap.catalog().get("D")), before);
  EXPECT_EQ(db.get("D").row_count(), 1u);
  EXPECT_LT(snap.generation(), db.generation());
}

TEST(Snapshot, InsertCopiesOnWriteAwayFromSnapshots) {
  Database db = small_db();
  Snapshot snap = db.snapshot();
  const std::size_t before = snap.catalog().get("D").row_count();

  db.execute("insert into D values (\"E\", \"two\")");
  EXPECT_EQ(snap.catalog().get("D").row_count(), before);
  EXPECT_EQ(db.get("D").row_count(), before + 1);
}

TEST(Snapshot, GenerationBumpsOnEveryCatalogMutation) {
  Database db = small_db();
  const std::uint64_t g0 = db.generation();
  Table t(Schema::of({"a"}));
  t.append({V("v")});
  db.put("T", std::move(t));
  EXPECT_GT(db.generation(), g0);
  const std::uint64_t g1 = db.generation();
  db.execute("insert into T values (\"w\")");
  EXPECT_GT(db.generation(), g1);
}

TEST(Snapshot, CopiesShareOneFrozenCatalog) {
  Database db = small_db();
  Snapshot a = db.snapshot();
  Snapshot b = a;
  EXPECT_EQ(a.shared_catalog().get(), b.shared_catalog().get());

  db.put("T", Table(Schema::of({"a"})));
  Snapshot c = db.snapshot();
  EXPECT_NE(a.shared_catalog().get(), c.shared_catalog().get());
  EXPECT_FALSE(b.catalog().has("T"));
  EXPECT_TRUE(c.catalog().has("T"));
}

TEST(Snapshot, ActiveGaugeTracksHandleLifetimes) {
  const std::size_t base = Snapshot::active();
  Database db = small_db();
  {
    Snapshot a = db.snapshot();
    EXPECT_EQ(Snapshot::active(), base + 1);
    Snapshot b = a;  // copy: one more live handle
    EXPECT_EQ(Snapshot::active(), base + 2);
    Snapshot c = std::move(b);  // move: transfers, no net change
    EXPECT_EQ(Snapshot::active(), base + 2);
    (void)c;
  }
  EXPECT_EQ(Snapshot::active(), base);
}

TEST(Snapshot, QueryAndCheckEmptyMatchDatabase) {
  Database db = small_db();
  Snapshot snap = db.snapshot();
  const std::string sql = "select dirst, dirpv from D where not dirst = I";
  EXPECT_EQ(to_csv(snap.query(sql).rows), to_csv(db.query(sql).rows));
  EXPECT_EQ(snap.check_empty("select dirst from D where dirst = MOESI"),
            db.check_empty("select dirst from D where dirst = MOESI"));
  EXPECT_FALSE(snap.check_empty("select dirst from D where dirst = \"I\""));
}

TEST(Snapshot, CarriesSessionJobsSetting) {
  Database db = small_db();
  db.set_jobs(3);
  Snapshot snap = db.snapshot();
  EXPECT_EQ(snap.jobs(), 3u);
}

TEST(Snapshot, EmptySnapshotIsInvalid) {
  Snapshot snap;
  EXPECT_FALSE(snap.valid());
  EXPECT_THROW((void)snap.query("select dirst from D"), BindError);
}

}  // namespace
}  // namespace ccsql
