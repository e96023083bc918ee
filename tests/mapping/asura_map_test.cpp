#include "mapping/asura_map.hpp"

#include <gtest/gtest.h>

#include "protocol/asura/asura.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

const Table& ed_table() {
  static const ControllerSpec ed_spec =
      mapping::make_extended_directory(spec());
  return ed_spec.generate(&spec().database().functions());
}

TEST(AsuraMapping, EdShape) {
  // ED = D's 30 columns + Qstatus + Dqstatus + Fdback (paper, section 5).
  const Table& ed = ed_table();
  EXPECT_EQ(ed.column_count(), 33u);
  EXPECT_GT(ed.row_count(),
            spec().database().get(asura::kDirectory).row_count());
  EXPECT_TRUE(ed.schema().has("Qstatus"));
  EXPECT_TRUE(ed.schema().has("Dqstatus"));
  EXPECT_TRUE(ed.schema().has("Fdback"));
}

TEST(AsuraMapping, FullQueueRetriesRequests) {
  Database cat;
  cat.put("ED", ed_table());
  cat.functions() = spec().database().functions();
  Table t = cat.query(
      "select locmsg, remmsg, memmsg, cmpl from ED where "
      "isrequest(inmsg) and Qstatus = Full and not inmsg = \"Dfdback\"").rows;
  ASSERT_GT(t.row_count(), 0u);
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    EXPECT_EQ(t.at(r, "locmsg"), V("retry"));
    EXPECT_TRUE(t.at(r, "remmsg").is_null());
    EXPECT_TRUE(t.at(r, "memmsg").is_null());
    EXPECT_TRUE(t.at(r, "cmpl").is_null());
  }
}

TEST(AsuraMapping, FullUpdateQueueGeneratesFeedback) {
  Database cat;
  cat.put("ED", ed_table());
  cat.functions() = spec().database().functions();
  // Responses that would write the directory ship the update as Dfdback.
  Table t = cat.query(
      "select Fdback from ED where isresponse(inmsg) and "
      "Dqstatus = Full and dirupd = upd").rows;
  ASSERT_GT(t.row_count(), 0u);
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    EXPECT_EQ(t.at(r, 0), V("Dfdback"));
  }
  // Responses without a directory write never generate feedback.
  Table none = cat.query(
      "select Fdback from ED where isresponse(inmsg) and "
      "not dirupd = upd and not Fdback = NULL").rows;
  EXPECT_EQ(none.row_count(), 0u);
}

TEST(AsuraMapping, DfdbackAppliesDeferredUpdate) {
  Database cat;
  cat.put("ED", ed_table());
  Table t = cat.query(
      "select dirupd, cmpl, locmsg, remmsg, memmsg from ED where "
      "inmsg = \"Dfdback\" and Qstatus = NotFull").rows;
  ASSERT_GT(t.row_count(), 0u);
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    EXPECT_EQ(t.at(r, "dirupd"), V("upd"));
    EXPECT_EQ(t.at(r, "cmpl"), V("done"));
    EXPECT_TRUE(t.at(r, "locmsg").is_null());
    EXPECT_TRUE(t.at(r, "remmsg").is_null());
    EXPECT_TRUE(t.at(r, "memmsg").is_null());
  }
  // A re-queued feedback performs nothing.
  Table requeued = cat.query(
      "select dirupd, cmpl from ED where inmsg = \"Dfdback\" and "
      "Qstatus = Full").rows;
  for (std::size_t r = 0; r < requeued.row_count(); ++r) {
    EXPECT_TRUE(requeued.at(r, "dirupd").is_null());
    EXPECT_TRUE(requeued.at(r, "cmpl").is_null());
  }
}

TEST(AsuraMapping, PartitionYieldsNineTables) {
  auto parts =
      mapping::partition_directory(ed_table(), spec().database().functions());
  ASSERT_EQ(parts.size(), 9u);
  std::set<std::string> names;
  for (const auto& p : parts) {
    names.insert(p.name);
    EXPECT_GT(p.table.row_count(), 0u) << p.name;
    // Every implementation table carries all ED inputs.
    EXPECT_TRUE(p.table.schema().has("inmsg"));
    EXPECT_TRUE(p.table.schema().has("Qstatus"));
  }
  EXPECT_TRUE(names.count("Request_remmsg"));
  EXPECT_TRUE(names.count("Response_dir"));
  EXPECT_FALSE(names.count("Response_remmsg"));  // responses never snoop
}

TEST(AsuraMapping, ReconstructionRoundTrips) {
  auto parts =
      mapping::partition_directory(ed_table(), spec().database().functions());
  Table rebuilt = mapping::reconstruct_extended(parts, ed_table());
  EXPECT_TRUE(rebuilt.set_equal(ed_table()));
}

TEST(AsuraMapping, BaseTableRecoveredFromEd) {
  const Table& d = spec().database().get(asura::kDirectory);
  Table base = mapping::reconstruct_base(ed_table(), d);
  EXPECT_TRUE(base.set_equal(d));
  EXPECT_TRUE(base.contains_all(d));
}

TEST(AsuraMapping, VerifyReportAllGreen) {
  auto report = mapping::verify_directory_mapping(spec());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.table_rows.size(), 9u);
  EXPECT_EQ(report.ed_cols, 33u);
}

TEST(AsuraMapping, FaultInjectionCorruptPartitionDetected) {
  auto parts =
      mapping::partition_directory(ed_table(), spec().database().functions());
  // Corrupt one output cell of one implementation table: flip a remmsg.
  for (auto& p : parts) {
    if (p.name != "Request_remmsg") continue;
    Table corrupted(p.table.schema_ptr());
    const std::size_t col = p.table.schema().index_of("remmsg");
    for (std::size_t r = 0; r < p.table.row_count(); ++r) {
      std::vector<Value> row(p.table.row(r).begin(), p.table.row(r).end());
      if (r == 0) row[col] = V("sflush");
      corrupted.append(RowView(row));
    }
    p.table = std::move(corrupted);
  }
  Table rebuilt = mapping::reconstruct_extended(parts, ed_table());
  EXPECT_FALSE(rebuilt.set_equal(ed_table()));
}

TEST(AsuraMapping, FaultInjectionDroppedRowDetected) {
  auto parts =
      mapping::partition_directory(ed_table(), spec().database().functions());
  for (auto& p : parts) {
    if (p.name != "Response_bdir") continue;
    Table shrunk(p.table.schema_ptr());
    for (std::size_t r = 1; r < p.table.row_count(); ++r) {
      shrunk.append(p.table.row(r));
    }
    p.table = std::move(shrunk);
  }
  Table rebuilt = mapping::reconstruct_extended(parts, ed_table());
  EXPECT_FALSE(rebuilt.contains_all(ed_table()));
}

}  // namespace
}  // namespace ccsql
