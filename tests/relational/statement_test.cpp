#include <gtest/gtest.h>

#include "relational/database.hpp"
#include "relational/error.hpp"
#include "relational/format.hpp"

namespace ccsql {
namespace {

Database db() {
  Database cat;
  Table d(Schema::of({"inmsg", "dirst"}));
  d.append({V("readex"), V("SI")});
  d.append({V("readex"), V("MESI")});
  d.append({V("wb"), V("MESI")});
  d.append({V("read"), V("I")});
  cat.put("D", std::move(d));
  return cat;
}

TEST(Statement, CountStar) {
  Database cat = db();
  Table r = cat.query("select count(*) from D").rows;
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.at(0, "count"), V("4"));
  Table f = cat.query("select count(*) from D where dirst = MESI").rows;
  EXPECT_EQ(f.at(0, 0), V("2"));
  Table z = cat.query("select count(*) from D where dirst = nosuch").rows;
  EXPECT_EQ(z.at(0, 0), V("0"));
}

TEST(Statement, OrderByGivesDeterministicTextOrder) {
  Database cat = db();
  Table r = cat.query("select inmsg, dirst from D order by inmsg, dirst").rows;
  ASSERT_EQ(r.row_count(), 4u);
  EXPECT_EQ(r.at(0, "inmsg"), V("read"));
  EXPECT_EQ(r.at(1, "inmsg"), V("readex"));
  EXPECT_EQ(r.at(1, "dirst"), V("MESI"));
  EXPECT_EQ(r.at(2, "dirst"), V("SI"));
  EXPECT_EQ(r.at(3, "inmsg"), V("wb"));
}

TEST(Statement, UnionIsSetSemantics) {
  Database cat = db();
  Table r = cat.query(
      "select inmsg from D where dirst = MESI union "
      "select inmsg from D where inmsg = readex").rows;
  // {readex, wb} ∪ {readex} = {readex, wb}
  EXPECT_EQ(r.row_count(), 2u);
}

TEST(Statement, UnionAcrossTables) {
  Database cat = db();
  Table e(Schema::of({"m"}));
  e.append({V("sinv")});
  cat.put("E", std::move(e));
  Table r = cat.query("select inmsg from D union select m from E").rows;
  EXPECT_EQ(r.row_count(), 4u);  // read, readex, wb, sinv
  EXPECT_EQ(r.schema().column(0).name, "inmsg");
}

TEST(Statement, CreateTableAsSelectMaterialises) {
  Database cat = db();
  // The paper's section 5 DDL shape.
  Table created = cat.execute(
      "Create Table Owned as Select distinct inmsg, dirst from D "
      "Where dirst = MESI");
  EXPECT_EQ(created.row_count(), 2u);
  ASSERT_TRUE(cat.has("Owned"));
  EXPECT_EQ(cat.get("Owned").row_count(), 2u);
  // The created table is queryable like any other.
  EXPECT_EQ(cat.query("select count(*) from Owned").rows.at(0, 0), V("2"));
}

TEST(Statement, DropTable) {
  Database cat = db();
  cat.execute("create table T as select * from D");
  ASSERT_TRUE(cat.has("T"));
  cat.execute("drop table T");
  EXPECT_FALSE(cat.has("T"));
  EXPECT_THROW(cat.execute("drop table T"), BindError);
}

TEST(Statement, InsertValues) {
  Database cat = db();
  cat.execute("insert into D values (flush, SI), (intr, I)");
  EXPECT_EQ(cat.get("D").row_count(), 6u);
  EXPECT_EQ(cat.query("select * from D where inmsg = intr").row_count(), 1u);
  EXPECT_THROW(cat.execute("insert into Missing values (x)"), BindError);
  // Arity mismatch is rejected by the table.
  EXPECT_THROW(cat.execute("insert into D values (only-one)"), SchemaError);
}

TEST(Statement, KeywordsAreLegalValueLiterals) {
  Database cat = db();
  cat.execute("insert into D values (drop, count)");
  EXPECT_EQ(
      cat.query("select * from D where inmsg = drop and dirst = count")
          .row_count(),
      1u);
}

TEST(Statement, SelectStatementViaExecute) {
  Database cat = db();
  Table r = cat.execute("select inmsg from D where dirst = I");
  EXPECT_EQ(r.row_count(), 1u);
}

TEST(Statement, ToStringRoundTrips) {
  const char* texts[] = {
      "select count(*) from D where dirst = MESI",
      "select inmsg from D order by inmsg",
      "select inmsg from D union select inmsg from D where dirst = I",
  };
  for (const char* t : texts) {
    SelectStmt s = parse_select(t);
    SelectStmt s2 = parse_select(s.to_string());
    EXPECT_EQ(s.to_string(), s2.to_string()) << t;
  }
}

TEST(Statement, MalformedStatementsRejected) {
  EXPECT_THROW(parse_statement("create table X"), ParseError);
  EXPECT_THROW(parse_statement("create X as select * from D"), ParseError);
  EXPECT_THROW(parse_statement("drop X"), ParseError);
  EXPECT_THROW(parse_statement("insert into X values"), ParseError);
  EXPECT_THROW(parse_statement("select count(inmsg) from D"), ParseError);
  EXPECT_THROW(parse_statement("select a from D order inmsg"), ParseError);
  EXPECT_THROW(parse_statement("select a from D union"), ParseError);
}

TEST(Statement, PaperImplementationTableFlow) {
  // End-to-end mini version of the paper's section 5 flow in pure SQL:
  // partition by request class, then rebuild by union and compare.
  Database cat = db();
  cat.functions().add_unary("isrequest", [](Value v) {
    return v == V("readex") || v == V("read") || v == V("wb");
  });
  cat.execute(
      "create table Req as select distinct inmsg, dirst from D "
      "where isrequest(inmsg)");
  cat.execute(
      "create table Resp as select distinct inmsg, dirst from D "
      "where not isrequest(inmsg)");
  Table rebuilt = cat.query("select * from Req union select * from Resp").rows;
  EXPECT_TRUE(rebuilt.set_equal(cat.get("D")));
}

}  // namespace
}  // namespace ccsql
