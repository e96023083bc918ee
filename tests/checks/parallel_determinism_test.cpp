// End-to-end determinism of the parallel checking layer: the ASURA
// invariant suite and the VCG deadlock analysis must produce identical
// reports — same verdicts, same row sets, same ordering — at --jobs 1 and
// --jobs N.  These are the workloads the paper times; byte-identical output
// is what lets the parallel engine replace the serial one silently.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "checks/invariant.hpp"
#include "checks/vcg.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/format.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& spec() {
  static auto s = asura::make_asura();
  return *s;
}

TEST(ParallelDeterminism, InvariantSuiteVerdictsMatchAcrossJobs) {
  Database serial = spec().database();
  serial.set_jobs(1);
  Database wide = spec().database();
  wide.set_jobs(4);

  InvariantChecker serial_checker(serial);
  InvariantChecker wide_checker(wide);
  auto a = serial_checker.check_all(spec().invariants());
  auto b = wide_checker.check_all(spec().invariants());

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << i;  // suite order is preserved
    EXPECT_EQ(a[i].holds, b[i].holds) << a[i].name;
    ASSERT_EQ(a[i].violations.size(), b[i].violations.size()) << a[i].name;
    for (std::size_t v = 0; v < a[i].violations.size(); ++v) {
      EXPECT_EQ(to_csv(a[i].violations[v]), to_csv(b[i].violations[v]))
          << a[i].name;
    }
  }
}

TEST(ParallelDeterminism, InjectedViolationRowsMatchAcrossJobs) {
  // The failing path materialises violating rows; those must also be
  // byte-identical, not just the pass/fail verdicts.
  auto corrupted = [] {
    Database db = spec().database();
    Table d = db.get("D");
    std::vector<Value> row(d.row(0).begin(), d.row(0).end());
    row[d.schema().index_of("dirst")] = V("MESI");
    row[d.schema().index_of("dirpv")] = V("zero");
    d.append(RowView(row));
    db.put("D", std::move(d));
    return db;
  };
  Database serial = corrupted();
  serial.set_jobs(1);
  Database wide = corrupted();
  wide.set_jobs(4);
  std::string a = InvariantChecker::report(
      InvariantChecker(serial).check_all(spec().invariants()));
  std::string b = InvariantChecker::report(
      InvariantChecker(wide).check_all(spec().invariants()));
  // Timing lines differ; compare the verdict lines only.
  auto verdicts = [](const std::string& report) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < report.size()) {
      std::size_t eol = report.find('\n', pos);
      if (eol == std::string::npos) eol = report.size();
      std::string line = report.substr(pos, eol - pos);
      if (line.rfind("FAIL", 0) == 0 || line.rfind("PASS", 0) == 0) {
        out.push_back(line.substr(0, line.find(" (")));
      }
      pos = eol + 1;
    }
    return out;
  };
  EXPECT_EQ(verdicts(a), verdicts(b));
  EXPECT_FALSE(verdicts(a).empty());
}

TEST(ParallelDeterminism, VcgAnalysisMatchesAcrossJobs) {
  std::vector<ControllerTableRef> refs;
  for (const auto& c : spec().controllers()) {
    refs.push_back(ControllerTableRef::from_spec(
        *c, spec().database().get(c->name())));
  }
  const ChannelAssignment& v5 = spec().assignment(asura::kAssignV5);

  DeadlockOptions serial_opts;
  serial_opts.jobs = 1;
  DeadlockAnalysis serial(refs, v5, serial_opts);

  DeadlockOptions wide_opts;
  wide_opts.jobs = 4;
  DeadlockAnalysis wide(refs, v5, wide_opts);

  // Identical dependency rows in identical order, identical cycles,
  // identical rendered report.
  ASSERT_EQ(serial.protocol_rows().size(), wide.protocol_rows().size());
  const auto tuple = [](const DependencyRow& r) {
    return std::array<Value, 8>{r.m1, r.s1, r.d1, r.v1,
                                r.m2, r.s2, r.d2, r.v2};
  };
  for (std::size_t i = 0; i < serial.protocol_rows().size(); ++i) {
    const DependencyRow& a = serial.protocol_rows()[i];
    const DependencyRow& b = wide.protocol_rows()[i];
    EXPECT_EQ(tuple(a), tuple(b)) << i;
    EXPECT_EQ(a.placement, b.placement) << i;
    EXPECT_EQ(a.origin, b.origin) << i;
  }
  EXPECT_EQ(serial.cycles().size(), wide.cycles().size());
  EXPECT_EQ(serial.report(), wide.report());
  EXPECT_EQ(to_csv(serial.protocol_dependency_table()),
            to_csv(wide.protocol_dependency_table()));
}

}  // namespace
}  // namespace ccsql
