#include "checks/lint.hpp"

#include <gtest/gtest.h>

#include "protocol/asura/asura.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

std::vector<std::string> finding_texts(
    const std::vector<LintFinding>& findings) {
  std::vector<std::string> out;
  for (const auto& f : findings) out.push_back(f.to_string());
  return out;
}

TEST(Lint, AsuraFindingsArePinned) {
  // The reconstruction's known hygiene advisories: deliberate domain
  // completeness (op/state symmetry), the implementation-only Dfdback
  // message (it lives in ED, not D), and two stale domain values kept for
  // documentation of the role-level history.  New findings mean the spec
  // drifted.
  auto findings = lint(spec(), asura::processor_sinks());
  auto texts = finding_texts(findings);
  const char* expected[] = {
      "D.nxtbdirpv: domain value 'inc' appears in no generated row",
      "D.nxtbdirpv: domain value 'drepl' appears in no generated row",
      "NC.nccmpl: domain value 'NULL' appears in no generated row",
      "CC.nxtcst: domain value 'E' appears in no generated row",
      "RAC.fwdmsgsrc: domain value 'home' appears in no generated row",
      "INT.inmsgsrc: domain value 'home' appears in no generated row",
      "INT.nxtintst: domain value 'w-st' appears in no generated row",
      "message 'Dfdback' appears in no controller table",
  };
  for (const char* e : expected) {
    EXPECT_NE(std::find(texts.begin(), texts.end(), e), texts.end()) << e;
  }
  EXPECT_EQ(findings.size(), std::size(expected))
      << lint_report(findings);
}

TEST(Lint, UnconstrainedOutputDetected) {
  ProtocolSpec p("toy");
  p.messages().add("req", MessageClass::kRequest);
  ControllerSpec& c = p.add_controller("T");
  c.add_input("inmsg", {"req"});
  c.add_output("out", {"a", "b"});  // no constraint: free cross product
  c.add_message_triple({"inmsg", "insrc", "indst", true});
  auto findings = lint(p);
  bool found = false;
  for (const auto& f : findings) {
    if (f.kind == LintFinding::Kind::kUnconstrainedOutput &&
        f.column == "out") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lint, UnconsumedMessageDetectedAndSinkable) {
  ProtocolSpec p("toy");
  p.messages().add("req", MessageClass::kRequest);
  p.messages().add("resp", MessageClass::kResponse);
  ControllerSpec& c = p.add_controller("T");
  c.add_input("inmsg", {"req"});
  c.add_input("insrc", {"local"});
  c.add_input("indst", {"home"});
  c.add_output("outmsg", {"resp"});
  c.add_output("outsrc", {"home"});
  c.add_output("outdst", {"local"});
  c.constrain("outmsg", "outmsg = resp");
  c.add_message_triple({"inmsg", "insrc", "indst", true});
  c.add_message_triple({"outmsg", "outsrc", "outdst", false});

  auto findings = lint(p);
  bool found = false;
  for (const auto& f : findings) {
    if (f.kind == LintFinding::Kind::kUnconsumedMessage && f.value == "resp") {
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // Declaring the message a processor-level sink silences the finding.
  auto with_sink = lint(p, {"resp"});
  for (const auto& f : with_sink) {
    EXPECT_FALSE(f.kind == LintFinding::Kind::kUnconsumedMessage &&
                 f.value == "resp");
  }
}

TEST(Lint, ReportCountsFindings) {
  auto findings = lint(spec());
  std::string report = lint_report(findings);
  EXPECT_NE(report.find("finding(s)"), std::string::npos);
}

}  // namespace
}  // namespace ccsql
