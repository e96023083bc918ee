// Copy-on-write snapshots (Database::snapshot): frozen Databases,
// generation tracking, the active-handles gauge and the session jobs
// setting they carry.
#include "relational/database.hpp"

#include <gtest/gtest.h>

#include "relational/error.hpp"
#include "relational/format.hpp"
#include "relational/parser.hpp"

namespace ccsql {
namespace {

Database small_db() {
  Database db;
  Table d(Schema::of({"dirst", "dirpv"}));
  d.append({V("MESI"), V("one")});
  d.append({V("SI"), V("gone")});
  d.append({V("I"), V("zero")});
  db.put("D", std::move(d));
  return db;
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

TEST(Snapshot, CarriesSessionJobsSetting) {
  Database db = small_db();
  db.set_jobs(3);
  Snapshot snap = db.snapshot();
  EXPECT_EQ(snap.catalog().jobs(), 3u);
}

TEST(Snapshot, EmptySnapshotIsInvalid) {
  Snapshot snap;
  EXPECT_FALSE(snap.valid());
  EXPECT_THROW((void)snap.catalog(), BindError);
  EXPECT_EQ(snap.generation(), 0u);
}

}  // namespace
}  // namespace ccsql
