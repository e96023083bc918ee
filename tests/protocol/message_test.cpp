#include "protocol/message.hpp"

#include <gtest/gtest.h>

#include "relational/database.hpp"
#include "relational/error.hpp"

namespace ccsql {
namespace {

MessageCatalog small_catalog() {
  MessageCatalog m;
  m.add("readex", MessageClass::kRequest, "read exclusive");
  m.add("compl", MessageClass::kResponse, "completion");
  m.add("sinv", MessageClass::kRequest);
  return m;
}

TEST(MessageCatalog, ClassifyAndPredicates) {
  MessageCatalog m = small_catalog();
  EXPECT_TRUE(m.has(V("readex")));
  EXPECT_FALSE(m.has(V("zzz")));
  EXPECT_TRUE(m.is_request(V("readex")));
  EXPECT_FALSE(m.is_request(V("compl")));
  EXPECT_TRUE(m.is_response(V("compl")));
  EXPECT_FALSE(m.is_response(V("zzz")));
  EXPECT_EQ(m.classify(V("sinv")), MessageClass::kRequest);
  EXPECT_EQ(m.classify(V("zzz")), std::nullopt);
}

TEST(MessageCatalog, DuplicateRejected) {
  MessageCatalog m = small_catalog();
  EXPECT_THROW(m.add("readex", MessageClass::kResponse), Error);
}

TEST(MessageCatalog, NamesFiltered) {
  MessageCatalog m = small_catalog();
  EXPECT_EQ(m.names().size(), 3u);
  EXPECT_EQ(m.names(MessageClass::kRequest),
            (std::vector<std::string>{"readex", "sinv"}));
  EXPECT_EQ(m.names(MessageClass::kResponse),
            std::vector<std::string>{"compl"});
}

TEST(MessageCatalog, InstallRegistersPredicates) {
  MessageCatalog m = small_catalog();
  FunctionRegistry fns;
  m.install(fns);
  ASSERT_TRUE(fns.has("isrequest"));
  ASSERT_TRUE(fns.has("isresponse"));
  std::vector<Value> arg{V("readex")};
  EXPECT_TRUE((*fns.find("isrequest"))(std::span<const Value>(arg)));
  arg[0] = V("compl");
  EXPECT_FALSE((*fns.find("isrequest"))(std::span<const Value>(arg)));
  EXPECT_TRUE((*fns.find("isresponse"))(std::span<const Value>(arg)));
}

TEST(MessageCatalog, ToTableIsQueryable) {
  MessageCatalog m = small_catalog();
  Database cat;
  cat.put("Messages", m.to_table());
  EXPECT_EQ(cat.get("Messages").row_count(), 3u);
  Table reqs =
      cat.query("select message from Messages where class = request").rows;
  EXPECT_EQ(reqs.row_count(), 2u);
}

TEST(MessageClass, ToString) {
  EXPECT_EQ(to_string(MessageClass::kRequest), "request");
  EXPECT_EQ(to_string(MessageClass::kResponse), "response");
}

}  // namespace
}  // namespace ccsql
