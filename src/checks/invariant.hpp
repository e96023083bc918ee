#pragma once

#include <string>
#include <vector>

#include "protocol/protocol_spec.hpp"
#include "relational/database.hpp"

namespace ccsql {

/// Result of checking one invariant: whether it holds, the violating rows
/// of every failing emptiness check, and the time spent
/// (std::chrono::steady_clock, also mirrored as an `invariant.check` span
/// and the `invariant.micros` histogram through ccsql::obs).
struct InvariantResult {
  std::string name;
  bool holds = false;
  std::vector<Table> violations;  // one per failing SELECT
  double micros = 0.0;
};

/// Runs named SQL invariants against a protocol database (paper, section
/// 4.3) through the Database session facade: emptiness probes in exists
/// mode first, full materialisation only for violated checks.
class InvariantChecker {
 public:
  explicit InvariantChecker(const Database& db) : db_(&db) {}

  /// Checks one invariant; never throws on violation (only on malformed
  /// SQL).
  [[nodiscard]] InvariantResult check(const NamedInvariant& inv) const;

  /// Checks a whole suite.  With the session's jobs > 1 the invariants run
  /// as one pool task each; results always come back in suite order, and
  /// each verdict/witness set is identical to a serial run.
  [[nodiscard]] std::vector<InvariantResult> check_all(
      const std::vector<NamedInvariant>& suite) const;

  /// True iff all results hold.
  static bool all_hold(const std::vector<InvariantResult>& results);

  /// The paper's headline claim: the whole ~50-invariant suite runs in
  /// under five minutes.
  static constexpr double kSuiteBudgetMicros = 5.0 * 60.0 * 1e6;

  /// Wall time the suite spent, summed over all results.
  static double total_micros(const std::vector<InvariantResult>& results);

  /// True iff the suite finished inside kSuiteBudgetMicros.
  static bool within_budget(const std::vector<InvariantResult>& results);

  /// Human-readable summary (one line per invariant + violation tables,
  /// then a suite-total line with the <5-minute budget verdict).
  static std::string report(const std::vector<InvariantResult>& results,
                            bool verbose = false);

 private:
  const Database* db_;
};

}  // namespace ccsql
