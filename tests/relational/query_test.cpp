// Database: table storage (put / get / has), SELECT and emptiness on a
// hand-built directory table.
#include "relational/database.hpp"

#include <gtest/gtest.h>

#include "relational/error.hpp"

namespace ccsql {
namespace {

Database make_db() {
  Database db;
  Table d(make_schema({{"inmsg", ColumnKind::kInput},
                       {"dirst", ColumnKind::kInput},
                       {"dirpv", ColumnKind::kInput},
                       {"locmsg", ColumnKind::kOutput}}));
  d.append({V("readex"), V("I"), V("zero"), V("compl")});
  d.append({V("readex"), V("SI"), V("gone"), null_value()});
  d.append({V("wb"), V("MESI"), V("one"), V("compl")});
  d.append({V("data"), V("Busy-d"), V("zero"), V("compl")});
  db.put("D", std::move(d));
  db.functions().add_unary("isrequest", [](Value v) {
    return v == V("readex") || v == V("wb");
  });
  return db;
}

TEST(Database, PutGetHas) {
  Database db = make_db();
  EXPECT_TRUE(db.has("D"));
  EXPECT_FALSE(db.has("E"));
  EXPECT_EQ(db.get("D").row_count(), 4u);
  EXPECT_THROW((void)db.get("E"), BindError);
  EXPECT_EQ(db.tables().size(), 1u);
}

TEST(Database, PutReplaces) {
  Database db = make_db();
  Table t(Schema::of({"x"}));
  t.append({V("1")});
  db.put("D", t);
  EXPECT_EQ(db.get("D").row_count(), 1u);
}

TEST(Database, SelectWithWhere) {
  Database db = make_db();
  Table r = db.query("select inmsg, dirst from D where inmsg = readex").rows;
  EXPECT_EQ(r.row_count(), 2u);
  EXPECT_EQ(r.column_count(), 2u);
}

TEST(Database, SelectStarKeepsAllColumns) {
  Database db = make_db();
  Table r = db.query("select * from D where dirst = \"Busy-d\"").rows;
  EXPECT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.column_count(), 4u);
  EXPECT_EQ(r.at(0, "locmsg"), V("compl"));
}

TEST(Database, SelectDistinctProjection) {
  Database db = make_db();
  Table all = db.query("select locmsg from D").rows;
  EXPECT_EQ(all.row_count(), 4u);  // plain select keeps duplicates
  Table dist = db.query("select distinct locmsg from D").rows;
  EXPECT_EQ(dist.row_count(), 2u);  // compl, NULL
}

TEST(Database, WhereUsesRegisteredFunctions) {
  Database db = make_db();
  Table r = db.query("select inmsg from D where isrequest(inmsg)").rows;
  EXPECT_EQ(r.row_count(), 3u);
}

TEST(Database, CheckEmptyPaperInvariantShape) {
  Database db = make_db();
  // dirst/dirpv consistency, in the paper's style: rows violating the
  // expected pairing must not exist.
  EXPECT_TRUE(db.check_empty(
      "[Select dirst, dirpv from D where dirst = \"MESI\" and "
      "not dirpv = \"one\"] = empty"));
  EXPECT_FALSE(db.check_empty(
      "[Select dirst from D where dirst = \"SI\"] = empty"));
}

TEST(Database, CheckEmptyConjunction) {
  Database db = make_db();
  EXPECT_TRUE(db.check_empty(
      "[select inmsg from D where inmsg = nosuch] = empty and "
      "[select inmsg from D where dirst = nosuch] = empty"));
  // One failing conjunct fails the invariant.
  EXPECT_FALSE(db.check_empty(
      "[select inmsg from D where inmsg = nosuch] = empty and "
      "[select inmsg from D where inmsg = wb] = empty"));
}

TEST(Database, QueryAgainstMissingTableThrows) {
  Database db = make_db();
  EXPECT_THROW(db.query("select a from Missing"), BindError);
}

TEST(Database, WhereOnUnknownColumnThrows) {
  Database db = make_db();
  // "nope" is not a column, so it is a literal; comparing a literal to a
  // literal is legal. But projecting an unknown column must throw.
  EXPECT_THROW(db.query("select nope from D"), BindError);
}

}  // namespace
}  // namespace ccsql
