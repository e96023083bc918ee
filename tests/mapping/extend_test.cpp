#include "mapping/extend.hpp"

#include <gtest/gtest.h>

#include "relational/database.hpp"
#include "relational/error.hpp"

namespace ccsql {
namespace {

ControllerSpec base_spec() {
  ControllerSpec c("B");
  c.add_input("inmsg", {"req"});
  c.add_input("st", {"idle", "busy"});
  c.add_output("out", {"NULL", "grant", "retry"});
  c.constrain("out", "st = idle ? out = grant : out = NULL");
  c.add_message_triple({"inmsg", "insrc", "indst", true});
  return c;
}

TEST(ExtendedTableBuilder, PreservesBaseWhenUnwrapped) {
  ControllerSpec base = base_spec();
  ControllerSpec ext = ExtendedTableBuilder("E", base).build();
  EXPECT_EQ(ext.name(), "E");
  const Table& bt = base.generate(nullptr);
  const Table& et = ext.generate(nullptr);
  EXPECT_TRUE(et.set_equal(bt.with_schema(et.schema_ptr())));
  EXPECT_EQ(ext.message_triples().size(), 1u);
}

TEST(ExtendedTableBuilder, NewInputGoesAfterBaseInputs) {
  ControllerSpec base = base_spec();
  ControllerSpec ext = ExtendedTableBuilder("E", base)
                           .add_input("qfull", {"yes", "no"})
                           .build();
  const Schema& s = *ext.schema();
  EXPECT_EQ(s.column(0).name, "inmsg");
  EXPECT_EQ(s.column(2).name, "qfull");
  EXPECT_EQ(s.column(2).kind, ColumnKind::kInput);
  EXPECT_EQ(s.column(3).name, "out");
  // Unconstrained new input doubles the rows.
  EXPECT_EQ(ext.generate(nullptr).row_count(),
            2 * base.generate(nullptr).row_count());
}

TEST(ExtendedTableBuilder, WrapOverridesConditionally) {
  ControllerSpec base = base_spec();
  ControllerSpec ext = ExtendedTableBuilder("E", base)
                           .add_input("qfull", {"yes", "no"})
                           .wrap("out", "qfull = yes", "out = retry")
                           .build();
  Database cat;
  cat.put("E", ext.generate(nullptr));
  // Wrapped branch.
  Table full = cat.query("select out from E where qfull = yes").rows;
  for (std::size_t r = 0; r < full.row_count(); ++r) {
    EXPECT_EQ(full.at(r, 0), V("retry"));
  }
  // Base behaviour intact when the condition does not fire.
  EXPECT_EQ(cat.query("select * from E where qfull = no and st = idle and "
                      "out = grant")
                .row_count(),
            1u);
  EXPECT_EQ(cat.query("select * from E where qfull = no and st = busy and "
                      "out = NULL")
                .row_count(),
            1u);
}

TEST(ExtendedTableBuilder, ExtendDomainAddsValues) {
  ControllerSpec base = base_spec();
  ControllerSpec ext = ExtendedTableBuilder("E", base)
                           .extend_domain("inmsg", {"fdback"})
                           .wrap("out", "inmsg = fdback", "out = NULL")
                           .build();
  Database cat;
  cat.put("E", ext.generate(nullptr));
  EXPECT_EQ(cat.query("select * from E where inmsg = fdback").row_count(),
            2u);  // st idle / busy
  EXPECT_EQ(cat.query("select * from E where inmsg = fdback and "
                      "not out = NULL")
                .row_count(),
            0u);
  EXPECT_THROW(ExtendedTableBuilder("E", base).extend_domain("zzz", {"v"}),
               BindError);
}

TEST(ExtendedTableBuilder, DoubleWrapNestsInOrder) {
  ControllerSpec base = base_spec();
  ControllerSpec ext = ExtendedTableBuilder("E", base)
                           .add_input("a", {"0", "1"})
                           .add_input("b", {"0", "1"})
                           .wrap("out", "a = 1", "out = retry")
                           .wrap("out", "b = 1", "out = NULL")
                           .build();
  Database cat;
  cat.put("E", ext.generate(nullptr));
  // Outer wrap (b) wins over inner wrap (a).
  Table t = cat.query("select out from E where a = 1 and b = 1").rows;
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    EXPECT_TRUE(t.at(r, 0).is_null());
  }
  Table t2 = cat.query("select out from E where a = 1 and b = 0").rows;
  for (std::size_t r = 0; r < t2.row_count(); ++r) {
    EXPECT_EQ(t2.at(r, 0), V("retry"));
  }
}

}  // namespace
}  // namespace ccsql
