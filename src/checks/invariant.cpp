#include "checks/invariant.hpp"

#include <chrono>
#include <sstream>

#include "core/pool.hpp"
#include "obs/obs.hpp"
#include "relational/format.hpp"
#include "relational/parser.hpp"

namespace ccsql {

InvariantResult InvariantChecker::check(const NamedInvariant& inv) const {
  CCSQL_SPAN(span, "invariant.check", "checks");
  span.arg("invariant", inv.name);
  const auto start = std::chrono::steady_clock::now();
  InvariantResult result;
  result.name = inv.name;
  result.holds = true;
  for (const SelectStmt& stmt : parse_invariant(inv.sql)) {
    // Fast path: probe emptiness (plan::is_empty, which gathers no rows) —
    // the common all-invariants-hold run never materialises a result.  Only a
    // violated check is re-run in full, for complete witness reporting.
    if (db_->check_empty(stmt)) continue;
    Table rows = db_->query(stmt).rows;
    if (rows.row_count() != 0) {
      result.holds = false;
      result.violations.push_back(std::move(rows));
    }
  }
  const auto end = std::chrono::steady_clock::now();
  result.micros =
      std::chrono::duration<double, std::micro>(end - start).count();
  span.arg("holds", result.holds);
  CCSQL_COUNT("invariant.checked", 1);
  if (!result.holds) CCSQL_COUNT("invariant.violated", 1);
  CCSQL_OBSERVE("invariant.micros", result.micros);
  return result;
}

std::vector<InvariantResult> InvariantChecker::check_all(
    const std::vector<NamedInvariant>& suite) const {
  CCSQL_SPAN(span, "invariant.suite", "checks");
  span.arg("invariants", suite.size());
  const std::size_t jobs = db_->jobs();
  span.arg("jobs", static_cast<std::uint64_t>(jobs));
  std::vector<InvariantResult> out(suite.size());
  if (jobs > 1 && suite.size() > 1) {
    // One pool task per invariant, each writing its own slot: the report
    // order (suite order) and every verdict are independent of scheduling.
    core::Pool::global().parallel_tasks(
        suite.size(), jobs,
        [&](std::size_t i) { out[i] = check(suite[i]); });
  } else {
    for (std::size_t i = 0; i < suite.size(); ++i) out[i] = check(suite[i]);
  }
  return out;
}

double InvariantChecker::total_micros(
    const std::vector<InvariantResult>& results) {
  double total = 0.0;
  for (const auto& r : results) total += r.micros;
  return total;
}

bool InvariantChecker::within_budget(
    const std::vector<InvariantResult>& results) {
  return total_micros(results) < kSuiteBudgetMicros;
}

bool InvariantChecker::all_hold(const std::vector<InvariantResult>& results) {
  for (const auto& r : results) {
    if (!r.holds) return false;
  }
  return true;
}

std::string InvariantChecker::report(
    const std::vector<InvariantResult>& results, bool verbose) {
  std::ostringstream os;
  std::size_t failed = 0;
  for (const auto& r : results) {
    if (!r.holds) ++failed;
    if (verbose || !r.holds) {
      os << (r.holds ? "PASS " : "FAIL ") << r.name << " ("
         << static_cast<long>(r.micros) << " us)\n";
      for (const auto& t : r.violations) {
        os << to_ascii(t, 10);
      }
    }
  }
  const double total_us = total_micros(results);
  os << results.size() << " invariants, " << failed << " violated\n"
     << "suite total: " << static_cast<long>(total_us) << " us ("
     << total_us / 1e6 << " s; paper budget 300 s: "
     << (total_us < kSuiteBudgetMicros ? "PASS" : "FAIL") << ")\n";
  return os.str();
}

}  // namespace ccsql
