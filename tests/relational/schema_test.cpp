#include "relational/schema.hpp"

#include <gtest/gtest.h>

#include "relational/error.hpp"

namespace ccsql {
namespace {

SchemaPtr dir_schema() {
  return make_schema({{"inmsg", ColumnKind::kInput},
                      {"dirst", ColumnKind::kInput},
                      {"locmsg", ColumnKind::kOutput},
                      {"nxtdirst", ColumnKind::kOutput}});
}

TEST(Schema, BasicAccessors) {
  auto s = dir_schema();
  EXPECT_EQ(s->size(), 4u);
  EXPECT_EQ(s->column(0).name, "inmsg");
  EXPECT_EQ(s->column(2).kind, ColumnKind::kOutput);
}

TEST(Schema, FindAndIndexOf) {
  auto s = dir_schema();
  EXPECT_EQ(s->find("dirst"), std::size_t{1});
  EXPECT_FALSE(s->find("nope").has_value());
  EXPECT_EQ(s->index_of("nxtdirst"), 3u);
  EXPECT_THROW((void)s->index_of("nope"), BindError);
}

TEST(Schema, DuplicateNamesRejected) {
  EXPECT_THROW(Schema({{"a", ColumnKind::kInput}, {"a", ColumnKind::kInput}}),
               SchemaError);
}

TEST(Schema, ExtendedAppendsAndRejectsDuplicates) {
  auto s = dir_schema();
  auto e = s->extended({"vc", ColumnKind::kMeta});
  EXPECT_EQ(e->size(), 5u);
  EXPECT_EQ(e->column(4).name, "vc");
  EXPECT_EQ(s->size(), 4u);  // original untouched
  EXPECT_THROW(s->extended({"inmsg", ColumnKind::kMeta}), SchemaError);
}

TEST(Schema, ProjectKeepsOrderGiven) {
  auto s = dir_schema();
  auto p = s->project({"locmsg", "inmsg"});
  ASSERT_EQ(p->size(), 2u);
  EXPECT_EQ(p->column(0).name, "locmsg");
  EXPECT_EQ(p->column(1).name, "inmsg");
  EXPECT_EQ(p->column(0).kind, ColumnKind::kOutput);
}

TEST(Schema, SameNamesIgnoresKinds) {
  auto a = make_schema({{"x", ColumnKind::kInput}, {"y", ColumnKind::kInput}});
  auto b =
      make_schema({{"x", ColumnKind::kOutput}, {"y", ColumnKind::kMeta}});
  EXPECT_TRUE(a->same_names(*b));
  auto c = make_schema({{"y", ColumnKind::kInput}, {"x", ColumnKind::kInput}});
  EXPECT_FALSE(a->same_names(*c));
}

TEST(Schema, OfMakesAllInputs) {
  auto s = Schema::of({"a", "b"});
  EXPECT_EQ(s->column(0).kind, ColumnKind::kInput);
  EXPECT_EQ(s->column(1).kind, ColumnKind::kInput);
}

TEST(ColumnKind, ToString) {
  EXPECT_EQ(to_string(ColumnKind::kInput), "input");
  EXPECT_EQ(to_string(ColumnKind::kOutput), "output");
  EXPECT_EQ(to_string(ColumnKind::kMeta), "meta");
}

}  // namespace
}  // namespace ccsql
