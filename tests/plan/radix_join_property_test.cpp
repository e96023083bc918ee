// Differential pin: a routed join over the right side's hash index must be
// byte-identical to a reference join over a test-local std::map keyed by
// the key cells' symbol ids, built row by row, at every jobs level.  The
// seeded inputs (16,384 build rows, 4,096 keys, 10,000 probe rows) give
// many-row lists and parallel probe morsels.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "relational/database.hpp"
#include "relational/format.hpp"
#include "relational/table.hpp"

namespace ccsql {
namespace {

Table seeded_table(std::uint32_t seed, std::size_t rows, std::size_t keys,
                   const char* payload_prefix) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> key(0, keys - 1);
  Table t(Schema::of({"k1", "k2", std::string(payload_prefix) + "p"}));
  t.reserve_rows(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t k = key(rng);
    t.append({V(std::string("a").append(std::to_string(k % 97))),
              V(std::string("b").append(std::to_string(k / 97))),
              V(std::string(payload_prefix).append(std::to_string(i % 1024)))});
  }
  return t;
}

Table left_table() {
  return seeded_table(/*seed=*/7, /*rows=*/10000, /*keys=*/4096, "l");
}
Table right_table() {
  return seeded_table(/*seed=*/11, /*rows=*/16384, /*keys=*/4096, "r");
}

std::string run_join(std::size_t jobs) {
  Database db;
  db.put("L", left_table());
  db.put("R", right_table());
  db.set_jobs(jobs);
  const QueryResult res = db.query(
      "select l.lp, r.rp from L l, R r "
      "where l.k1 = r.k1 and l.k2 = r.k2");
  EXPECT_GT(res.row_count(), 0u);
  return to_csv(res.rows);
}

/// The reference: L rows in order, each followed by its (k1, k2) matches in
/// R in ascending row order, found through a plain hash map filled by a row
/// loop — independent of the HashIndex under test.  The header carries the
/// planner's qualified output names.
std::string reference_join() {
  const Table l = left_table();
  const Table r = right_table();
  const auto key = [](const Table& t, std::size_t row) {
    return std::vector<std::uint32_t>{t.at(row, 0).id(), t.at(row, 1).id()};
  };
  std::map<std::vector<std::uint32_t>, std::vector<std::size_t>> index;
  for (std::size_t j = 0; j < r.row_count(); ++j) {
    index[key(r, j)].push_back(j);
  }
  Table out(Schema::of({"l.lp", "r.rp"}));
  for (std::size_t i = 0; i < l.row_count(); ++i) {
    const auto it = index.find(key(l, i));
    if (it == index.end()) continue;
    for (const std::size_t j : it->second) {
      out.append({l.at(i, 2), r.at(j, 2)});
    }
  }
  return to_csv(out);
}

TEST(RadixJoin, MatchesSinglePartitionAtEveryJobsLevel) {
  const std::string reference = reference_join();
  for (const std::size_t jobs : {1u, 4u, 8u}) {
    EXPECT_EQ(run_join(jobs), reference)
        << "join diverged at jobs=" << jobs;
  }
}

}  // namespace
}  // namespace ccsql
