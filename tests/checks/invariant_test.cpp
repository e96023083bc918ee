#include "checks/invariant.hpp"

#include <gtest/gtest.h>

#include "protocol/asura/asura.hpp"
#include "relational/error.hpp"

namespace ccsql {
namespace {

Database small_db() {
  Database cat;
  Table d(Schema::of({"dirst", "dirpv"}));
  d.append({V("MESI"), V("one")});
  d.append({V("SI"), V("gone")});
  d.append({V("I"), V("zero")});
  cat.put("D", std::move(d));
  return cat;
}

TEST(InvariantChecker, PassingInvariant) {
  Database db = small_db();
  InvariantChecker checker(db);
  NamedInvariant inv{"consistency", "",
                     "[select dirst from D where dirst = MESI and "
                     "not dirpv = one] = empty"};
  InvariantResult r = checker.check(inv);
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_GT(r.micros, 0.0);
  EXPECT_EQ(r.name, "consistency");
}

TEST(InvariantChecker, FailingInvariantReportsViolatingRows) {
  Database db = small_db();
  InvariantChecker checker(db);
  NamedInvariant inv{"no-shared", "",
                     "[select dirst, dirpv from D where dirst = SI] = empty"};
  InvariantResult r = checker.check(inv);
  EXPECT_FALSE(r.holds);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].row_count(), 1u);
  EXPECT_EQ(r.violations[0].at(0, "dirpv"), V("gone"));
}

TEST(InvariantChecker, ConjunctionReportsEachFailingCheck) {
  Database db = small_db();
  InvariantChecker checker(db);
  NamedInvariant inv{
      "two-checks", "",
      "[select dirst from D where dirst = SI] = empty and "
      "[select dirst from D where dirst = I] = empty and "
      "[select dirst from D where dirst = nosuch] = empty"};
  InvariantResult r = checker.check(inv);
  EXPECT_FALSE(r.holds);
  EXPECT_EQ(r.violations.size(), 2u);
}

TEST(InvariantChecker, CheckAllAndAllHold) {
  Database db = small_db();
  InvariantChecker checker(db);
  std::vector<NamedInvariant> suite{
      {"ok", "", "[select dirst from D where dirst = nosuch] = empty"},
      {"bad", "", "[select dirst from D where dirst = I] = empty"},
  };
  auto results = checker.check_all(suite);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].holds);
  EXPECT_FALSE(results[1].holds);
  EXPECT_FALSE(InvariantChecker::all_hold(results));
  results.pop_back();
  EXPECT_TRUE(InvariantChecker::all_hold(results));
}

TEST(InvariantChecker, ReportMentionsFailuresAndCounts) {
  Database db = small_db();
  InvariantChecker checker(db);
  std::vector<NamedInvariant> suite{
      {"ok", "", "[select dirst from D where dirst = nosuch] = empty"},
      {"bad", "", "[select dirst from D where dirst = I] = empty"},
  };
  std::string report = InvariantChecker::report(checker.check_all(suite));
  EXPECT_NE(report.find("FAIL bad"), std::string::npos);
  EXPECT_EQ(report.find("PASS ok"), std::string::npos);  // non-verbose
  EXPECT_NE(report.find("2 invariants, 1 violated"), std::string::npos);
  EXPECT_NE(report.find("suite total:"), std::string::npos);
  EXPECT_NE(report.find("paper budget 300 s: PASS"), std::string::npos);
  std::string verbose =
      InvariantChecker::report(checker.check_all(suite), /*verbose=*/true);
  EXPECT_NE(verbose.find("PASS ok"), std::string::npos);
}

TEST(InvariantChecker, SuiteTotalAndBudget) {
  Database db = small_db();
  InvariantChecker checker(db);
  std::vector<NamedInvariant> suite{
      {"ok", "", "[select dirst from D where dirst = nosuch] = empty"},
      {"ok2", "", "[select dirst from D where dirst = nosuch] = empty"},
  };
  auto results = checker.check_all(suite);
  const double total = InvariantChecker::total_micros(results);
  EXPECT_DOUBLE_EQ(total, results[0].micros + results[1].micros);
  EXPECT_GT(total, 0.0);
  EXPECT_TRUE(InvariantChecker::within_budget(results));

  // A synthetic over-budget suite trips the check.
  results[0].micros = InvariantChecker::kSuiteBudgetMicros + 1.0;
  EXPECT_FALSE(InvariantChecker::within_budget(results));
}

TEST(InvariantChecker, MalformedSqlThrows) {
  Database db = small_db();
  InvariantChecker checker(db);
  NamedInvariant inv{"broken", "", "[select from] = empty"};
  EXPECT_THROW((void)checker.check(inv), ParseError);
}

TEST(InvariantChecker, FullAsuraSuiteHolds) {
  auto spec = asura::make_asura();
  InvariantChecker checker(spec->database());
  auto results = checker.check_all(spec->invariants());
  EXPECT_GE(results.size(), 45u);
  EXPECT_TRUE(InvariantChecker::all_hold(results))
      << InvariantChecker::report(results);
}

}  // namespace
}  // namespace ccsql
