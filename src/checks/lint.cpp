#include "checks/lint.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace ccsql {

std::string LintFinding::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kUnusedDomainValue:
      os << controller << "." << column << ": domain value '" << value
         << "' appears in no generated row";
      break;
    case Kind::kUnconstrainedOutput:
      os << controller << "." << column
         << ": output column has no constraint (free cross product)";
      break;
    case Kind::kUnusedMessage:
      os << "message '" << value << "' appears in no controller table";
      break;
    case Kind::kUnconsumedMessage:
      os << "message '" << value
         << "' is produced but consumed by no controller";
      break;
  }
  return os.str();
}

std::vector<LintFinding> lint(const ProtocolSpec& spec,
                              const std::vector<std::string>& sinks) {
  std::vector<LintFinding> findings;
  const Database& db = spec.database();

  std::set<std::string> used_messages;   // message values seen anywhere
  std::set<std::string> consumed;        // seen in some input column
  std::set<std::string> produced;        // seen in some output column

  for (const auto& c : spec.controllers()) {
    const Table& t = db.get(c->name());
    const Schema& schema = t.schema();

    // Unused domain values.
    for (std::size_t col = 0; col < schema.size(); ++col) {
      const ColumnView values = t.column(col);
      const std::set<Value> seen(values.begin(), values.end());
      for (const Domain& d : c->domains()) {
        if (d.column() != schema.column(col).name) continue;
        for (Value v : d.values()) {
          if (seen.count(v) == 0) {
            findings.push_back(LintFinding{
                LintFinding::Kind::kUnusedDomainValue, c->name(),
                schema.column(col).name, std::string(v.str())});
          }
        }
      }
    }

    // Unconstrained outputs.
    for (std::size_t col = 0; col < schema.size(); ++col) {
      if (schema.column(col).kind != ColumnKind::kOutput) continue;
      const auto& name = schema.column(col).name;
      const bool constrained = std::any_of(
          c->constraints().begin(), c->constraints().end(),
          [&](const ColumnConstraint& cc) { return cc.column == name; });
      if (!constrained) {
        findings.push_back(LintFinding{
            LintFinding::Kind::kUnconstrainedOutput, c->name(), name, ""});
      }
    }

    // Message usage: any column may carry message values (e.g. the node
    // controller's processor port); network-level produce/consume routing
    // is tracked through the declared message triples only.
    for (std::size_t col = 0; col < schema.size(); ++col) {
      for (const Value m : t.column(col)) {
        if (!m.is_null() && spec.messages().has(m)) {
          used_messages.insert(std::string(m.str()));
        }
      }
    }
    for (const auto& triple : c->message_triples()) {
      for (const Value m : t.column(schema.index_of(triple.msg))) {
        if (m.is_null()) continue;
        (triple.is_input ? consumed : produced)
            .insert(std::string(m.str()));
      }
    }
  }

  for (const auto& m : spec.messages().all()) {
    if (used_messages.count(m.name) == 0) {
      findings.push_back(LintFinding{LintFinding::Kind::kUnusedMessage, "",
                                     "", m.name});
    }
  }
  for (const auto& m : produced) {
    if (consumed.count(m) == 0 &&
        std::find(sinks.begin(), sinks.end(), m) == sinks.end()) {
      findings.push_back(
          LintFinding{LintFinding::Kind::kUnconsumedMessage, "", "", m});
    }
  }
  return findings;
}

std::string lint_report(const std::vector<LintFinding>& findings) {
  std::ostringstream os;
  for (const auto& f : findings) os << f.to_string() << '\n';
  os << findings.size() << " finding(s)\n";
  return os.str();
}

}  // namespace ccsql
