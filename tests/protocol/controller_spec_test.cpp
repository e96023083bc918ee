#include "protocol/controller_spec.hpp"

#include <gtest/gtest.h>

#include "relational/error.hpp"

namespace ccsql {
namespace {

ControllerSpec tiny() {
  ControllerSpec c("T");
  c.add_input("inmsg", {"req", "resp"});
  c.add_input("st", {"idle", "busy"});
  c.add_output("out", {"NULL", "grant", "done"});
  c.constrain("st", "inmsg = resp ? st = busy : true");
  c.constrain("out",
              "inmsg = req and st = idle ? out = grant : "
              "(inmsg = resp ? out = done : out = NULL)");
  c.add_message_triple({"inmsg", "insrc", "indst", true});
  c.add_message_triple({"out", "outsrc", "outdst", false});
  return c;
}

TEST(ControllerSpec, GenerateSolvesConstraints) {
  ControllerSpec c = tiny();
  const Table& t = c.generate(nullptr);
  // req x {idle,busy} + resp x busy = 3 rows.
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_EQ(t.schema().column(0).kind, ColumnKind::kInput);
  EXPECT_EQ(t.schema().column(2).kind, ColumnKind::kOutput);
}

TEST(ControllerSpec, EveryGenerateSolves) {
  ControllerSpec c = tiny();
  IncrementalTrace trace;
  (void)c.generate(nullptr, &trace);
  (void)c.generate(nullptr, &trace);
  EXPECT_EQ(trace.steps.size(), 6u);
  // The spec keeps no table: an edit shows in the next generate().
  c.constrain("st", "st = idle");
  EXPECT_EQ(c.generate(nullptr).row_count(), 1u);
}

TEST(ControllerSpec, MessageTriples) {
  ControllerSpec c = tiny();
  ASSERT_NE(c.input_triple(), nullptr);
  EXPECT_EQ(c.input_triple()->msg, "inmsg");
  auto outs = c.output_triples();
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].msg, "out");
}

TEST(ControllerSpec, DomainColumnMismatchRejected) {
  ControllerSpec c("T");
  EXPECT_THROW(
      c.add_column({"a", ColumnKind::kInput},
                   Domain("b", std::vector<std::string>{"x"})),
      SchemaError);
}

TEST(ControllerSpec, AddColumnAfterFinalizationRejected) {
  ControllerSpec c = tiny();
  (void)c.schema();
  EXPECT_THROW(c.add_input("late", {"x"}), SchemaError);
}

TEST(ControllerSpec, BadConstraintReportsContext) {
  ControllerSpec c("T");
  c.add_input("a", {"x"});
  try {
    c.constrain("a", "a = (");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("controller T"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("column a"), std::string::npos);
  }
}

}  // namespace
}  // namespace ccsql
