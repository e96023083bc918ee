// Property tests for the determinism contract of the parallel engine:
// `jobs` decides only where morsels run, so for any fixed seed the rows a
// query produces — including their ORDER — must be byte-identical between
// --jobs 1 (serial) and --jobs N.  Tables here are sized past the parallel
// threshold (2048 rows) so the morsel paths genuinely engage.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "relational/database.hpp"
#include "relational/format.hpp"
#include "support/naive_exec.hpp"

namespace ccsql {
namespace {

using Rng = std::mt19937;

std::size_t pick(Rng& rng, std::size_t n) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

const std::vector<std::string> kValues = {"v0", "v1", "v2", "v3",
                                          "v4", "v5", "v6", "v7"};

/// A table big enough (>= 2048 rows) that scans, filters, and hash-join
/// probes all take their parallel paths.
Table big_table(Rng& rng, const std::vector<std::string>& cols,
                std::size_t rows) {
  Table t(Schema::of(cols));
  t.reserve_rows(rows);
  std::vector<std::string> row(cols.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      row[c] = kValues[pick(rng, kValues.size())];
    }
    t.append_texts(row);
  }
  return t;
}

Database seeded_db(unsigned seed) {
  Rng rng(seed);
  Catalog cat;
  cat.put("L", big_table(rng, {"k", "p", "q"}, 4096));
  cat.put("R", big_table(rng, {"k", "r"}, 3000));
  cat.put("S", big_table(rng, {"p", "s"}, 2500));
  return Database(std::move(cat));
}

const std::vector<std::string> kQueries = {
    // Parallel scan+filter.
    "select k, p from L where p = v0",
    "select * from L where not q = v1 and not p = v2",
    "select k from L where k = v0 or k = v1 or k = v2 or k = v3",
    // Hash join: parallel build (index on y.k) + parallel probe over L.
    "select x.p, y.r from L x, R y where x.k = y.k and x.q = v0",
    // Three-way join through both big relations.
    "select y.r, z.s from L x, R y, S z where x.k = y.k and x.p = z.p "
    "and x.q = v2 and y.r = v0 and z.s = v1",
    // Fused count.
    "select count(*) from L where p = v0 and q = v1",
    "select count(*) from L",
};

TEST(ParallelProperty, QueriesAreByteIdenticalAcrossJobs) {
  for (unsigned seed : {1u, 7u, 42u}) {
    Database serial = seeded_db(seed);
    serial.set_jobs(1);
    Database wide = seeded_db(seed);
    wide.set_jobs(4);
    for (const auto& sql : kQueries) {
      EXPECT_EQ(to_csv(serial.query(sql).rows), to_csv(wide.query(sql).rows))
          << "seed " << seed << ": " << sql;
    }
  }
}

TEST(ParallelProperty, ParallelAgreesWithNaiveOracleOnScans) {
  // The naive oracle materialises the full FROM cross product, so only
  // single-table statements are feasible at parallel-threshold sizes; the
  // joins get their oracle check below, on oracle-sized tables.
  Database wide = seeded_db(3);
  wide.set_jobs(4);
  for (const auto& sql : kQueries) {
    if (sql.find(" y") != std::string::npos) continue;  // skip the joins
    Table oracle = naive::run(wide.catalog(), parse_select(sql));
    Table parallel = wide.query(sql).rows;
    EXPECT_EQ(to_csv(parallel), to_csv(oracle)) << sql;
  }
}

TEST(ParallelProperty, JoinsAgreeWithNaiveOracleAtOracleScale) {
  Rng rng(23);
  Catalog cat;
  cat.put("L", big_table(rng, {"k", "p", "q"}, 120));
  cat.put("R", big_table(rng, {"k", "r"}, 90));
  cat.put("S", big_table(rng, {"p", "s"}, 80));
  Database wide = Database(std::move(cat));
  wide.set_jobs(4);
  for (const auto& sql : kQueries) {
    EXPECT_EQ(to_csv(wide.query(sql).rows),
              to_csv(naive::run(wide.catalog(), parse_select(sql))))
        << sql;
  }
}

TEST(ParallelProperty, CheckEmptyVerdictsMatchAcrossJobs) {
  Database serial = seeded_db(11);
  serial.set_jobs(1);
  Database wide = seeded_db(11);
  wide.set_jobs(4);
  const std::vector<std::string> invariants = {
      "[select k from L where p = v0 and q = v0 and k = v0] = empty",
      "[select k from L where p = nosuchvalue] = empty",
      "[select r from R where k = v0 and r = v1] = empty and "
      "[select s from S where p = v1 and s = v2] = empty",
  };
  for (const auto& inv : invariants) {
    EXPECT_EQ(serial.check_empty(inv), wide.check_empty(inv)) << inv;
  }
}

TEST(ParallelProperty, UnionIsByteIdenticalAcrossJobs) {
  for (unsigned seed : {5u, 19u}) {
    Database serial = seeded_db(seed);
    serial.set_jobs(1);
    Database wide = seeded_db(seed);
    wide.set_jobs(4);
    const std::string sql =
        "select k from L where p = v0 union "
        "select k from R where r = v1 union "
        "select k from L where q = v2";
    EXPECT_EQ(to_csv(serial.query(sql).rows), to_csv(wide.query(sql).rows))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace ccsql
