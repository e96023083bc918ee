// Differential pin: the radix-partitioned hash join must be byte-identical
// to the single-partition join, at every jobs level.  Seeded inputs large
// enough to cross the radix threshold (build side >= 8192 rows) make the
// partitioned path actually exercise multi-partition build + probe.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "relational/database.hpp"
#include "relational/format.hpp"
#include "relational/table.hpp"

namespace ccsql {
namespace {

/// Restores the process-wide radix toggle on scope exit.
class RadixGuard {
 public:
  RadixGuard() : prev_(radix_join_enabled()) {}
  ~RadixGuard() { set_radix_join_enabled(prev_); }

 private:
  bool prev_;
};

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

std::string run_join(bool radix, std::size_t jobs) {
  RadixGuard guard;
  set_radix_join_enabled(radix);
  Database db;
  // Build side (right) crosses the 8192-row radix threshold.
  db.put("L", seeded_table(/*seed=*/7, /*rows=*/10000, /*keys=*/4096, "l"));
  db.put("R", seeded_table(/*seed=*/11, /*rows=*/16384, /*keys=*/4096, "r"));
  db.set_jobs(jobs);
  const QueryResult res = db.query(
      "select l.lp, r.rp from L l, R r "
      "where l.k1 = r.k1 and l.k2 = r.k2");
  EXPECT_TRUE(res.planned);
  EXPECT_GT(res.row_count(), 0u);
  return to_csv(res.rows);
}

TEST(RadixJoin, MatchesSinglePartitionAtEveryJobsLevel) {
  const std::string reference = run_join(/*radix=*/false, /*jobs=*/1);
  for (const std::size_t jobs : {1u, 4u, 8u}) {
    EXPECT_EQ(run_join(/*radix=*/true, jobs), reference)
        << "radix join diverged at jobs=" << jobs;
    EXPECT_EQ(run_join(/*radix=*/false, jobs), reference)
        << "single-partition join diverged at jobs=" << jobs;
  }
}

TEST(RadixJoin, BuildsMultiplePartitionsAboveThreshold) {
  RadixGuard guard;
  set_radix_join_enabled(true);
  Table r = seeded_table(/*seed=*/11, /*rows=*/16384, /*keys=*/4096, "r");
  const std::vector<std::size_t> cols{0, 1};
  const JoinIndex& idx = r.join_index_on(cols, /*jobs=*/4);
  EXPECT_GT(idx.partitions(), 1u);
  EXPECT_EQ(idx.row_count(), r.row_count());
}

TEST(RadixJoin, SmallBuildSideStaysSinglePartition) {
  RadixGuard guard;
  set_radix_join_enabled(true);
  Table r = seeded_table(/*seed=*/3, /*rows=*/512, /*keys=*/64, "r");
  const std::vector<std::size_t> cols{0, 1};
  const JoinIndex& idx = r.join_index_on(cols, /*jobs=*/4);
  EXPECT_EQ(idx.partitions(), 1u);
}

}  // namespace
}  // namespace ccsql
