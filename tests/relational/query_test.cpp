#include "relational/query.hpp"

#include <gtest/gtest.h>

#include "relational/error.hpp"

namespace ccsql {
namespace {

Catalog make_catalog() {
  Catalog cat;
  Table d(make_schema({{"inmsg", ColumnKind::kInput},
                       {"dirst", ColumnKind::kInput},
                       {"dirpv", ColumnKind::kInput},
                       {"locmsg", ColumnKind::kOutput}}));
  d.append({V("readex"), V("I"), V("zero"), V("compl")});
  d.append({V("readex"), V("SI"), V("gone"), null_value()});
  d.append({V("wb"), V("MESI"), V("one"), V("compl")});
  d.append({V("data"), V("Busy-d"), V("zero"), V("compl")});
  cat.put("D", std::move(d));
  cat.functions().add_unary("isrequest", [](Value v) {
    return v == V("readex") || v == V("wb");
  });
  return cat;
}

TEST(Catalog, PutGetHas) {
  Catalog cat = make_catalog();
  EXPECT_TRUE(cat.has("D"));
  EXPECT_FALSE(cat.has("E"));
  EXPECT_EQ(cat.get("D").row_count(), 4u);
  EXPECT_THROW((void)cat.get("E"), BindError);
  EXPECT_EQ(cat.size(), 1u);
}

TEST(Catalog, PutReplaces) {
  Catalog cat = make_catalog();
  Table t(Schema::of({"x"}));
  t.append({V("1")});
  cat.put("D", t);
  EXPECT_EQ(cat.get("D").row_count(), 1u);
}

TEST(Catalog, SelectWithWhere) {
  Catalog cat = make_catalog();
  Table r = cat.query("select inmsg, dirst from D where inmsg = readex");
  EXPECT_EQ(r.row_count(), 2u);
  EXPECT_EQ(r.column_count(), 2u);
}

TEST(Catalog, SelectStarKeepsAllColumns) {
  Catalog cat = make_catalog();
  Table r = cat.query("select * from D where dirst = \"Busy-d\"");
  EXPECT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.column_count(), 4u);
  EXPECT_EQ(r.at(0, "locmsg"), V("compl"));
}

TEST(Catalog, SelectDistinctProjection) {
  Catalog cat = make_catalog();
  Table all = cat.query("select locmsg from D");
  EXPECT_EQ(all.row_count(), 4u);  // plain select keeps duplicates
  Table dist = cat.query("select distinct locmsg from D");
  EXPECT_EQ(dist.row_count(), 2u);  // compl, NULL
}

TEST(Catalog, WhereUsesRegisteredFunctions) {
  Catalog cat = make_catalog();
  Table r = cat.query("select inmsg from D where isrequest(inmsg)");
  EXPECT_EQ(r.row_count(), 3u);
}

TEST(Catalog, CheckEmptyPaperInvariantShape) {
  Catalog cat = make_catalog();
  // dirst/dirpv consistency, in the paper's style: rows violating the
  // expected pairing must not exist.
  EXPECT_TRUE(cat.check_empty(
      "[Select dirst, dirpv from D where dirst = \"MESI\" and "
      "not dirpv = \"one\"] = empty"));
  EXPECT_FALSE(cat.check_empty(
      "[Select dirst from D where dirst = \"SI\"] = empty"));
}

TEST(Catalog, CheckEmptyConjunction) {
  Catalog cat = make_catalog();
  EXPECT_TRUE(cat.check_empty(
      "[select inmsg from D where inmsg = nosuch] = empty and "
      "[select inmsg from D where dirst = nosuch] = empty"));
  // One failing conjunct fails the invariant.
  EXPECT_FALSE(cat.check_empty(
      "[select inmsg from D where inmsg = nosuch] = empty and "
      "[select inmsg from D where inmsg = wb] = empty"));
}

TEST(Catalog, QueryAgainstMissingTableThrows) {
  Catalog cat = make_catalog();
  EXPECT_THROW(cat.query("select a from Missing"), BindError);
}

TEST(Catalog, WhereOnUnknownColumnThrows) {
  Catalog cat = make_catalog();
  // "nope" is not a column, so it is a literal; comparing a literal to a
  // literal is legal. But projecting an unknown column must throw.
  EXPECT_THROW(cat.query("select nope from D"), BindError);
}

}  // namespace
}  // namespace ccsql
