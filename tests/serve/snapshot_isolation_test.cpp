// Snapshot isolation under concurrent writers (the PR's acceptance
// property): eight reader sessions run the invariant suite against
// serve::Server while a writer keeps republishing the directory table.
// Every reader answer must be byte-identical to a quiesced evaluation —
// readers are never blocked by, and never observe, a half-applied swap.
//
// Deterministic by construction: the writer always republishes
// identical-content tables (a fresh copy of the same rows), so the correct
// answer never changes even though the catalog generation — and therefore
// every cached plan — keeps churning.  Run under TSan in CI to prove the
// reader path is race-free, not just observably correct.
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pool.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/format.hpp"
#include "serve/server.hpp"

namespace ccsql::serve {
namespace {

constexpr std::size_t kReaders = 8;
constexpr std::size_t kQueriesPerReader = 200;

TEST(SnapshotIsolation, ReadersMatchQuiescedRunUnderConcurrentRegeneration) {
  const std::unique_ptr<ProtocolSpec> spec = asura::make_asura();

  // Quiesced oracle: every invariant's verdict and every probe's rows,
  // computed once before any concurrency.  The probes gather through each
  // shared prepared node a cached plan runs: a bare scan, a routed join
  // (its CrossRoute) and a filtered index lookup (its hash index and
  // RowFilter).
  const Database& oracle_db = spec->database();
  std::vector<std::string> sqls;
  std::vector<bool> verdicts;
  for (const auto& inv : spec->invariants()) {
    sqls.push_back(inv.sql);
    verdicts.push_back(oracle_db.check_empty(inv.sql));
  }
  const std::vector<std::string> probes = {
      "select dirst, dirpv, inmsg from D",
      "select a.inmsg, b.inmsg from D a, M b where a.memmsg = b.inmsg",
      "select dirst, dirpv, inmsg from D where dirst = \"MESI\" and "
      "not dirpv = \"zero\"",
  };
  std::vector<std::string> probe_csvs;
  for (const std::string& probe : probes) {
    probe_csvs.push_back(to_csv(oracle_db.query(probe).rows));
    ASSERT_GT(oracle_db.query(probe).rows.row_count(), 0u) << probe;
  }

  Server server(spec->database());
  const std::uint64_t gen0 = server.stats().generation;

  // The writer republishes D with identical contents (a row-for-row copy)
  // until the readers finish — each update() is one COW swap that
  // invalidates every cached plan.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> swaps{0};
  std::thread writer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      server.update([](Database& db) {
        Table copy = db.get(asura::kDirectory);
        db.put(asura::kDirectory, std::move(copy));
      });
      ++swaps;
      std::this_thread::yield();
    }
  });

  // Eight reader sessions, each with its own seeded query order, comparing
  // every answer against the quiesced oracle.
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> queries{0};
  core::Pool::global().parallel_tasks(kReaders, kReaders, [&](std::size_t r) {
    std::mt19937 rng(0xC0FFEE + static_cast<std::uint32_t>(r));
    for (std::size_t q = 0; q < kQueriesPerReader; ++q) {
      if (rng() % 8 == 0) {
        // Occasionally a probe's rows: byte-identical, never a mid-swap
        // torn view.
        const std::size_t p = rng() % probes.size();
        if (to_csv(server.query(probes[p]).rows) != probe_csvs[p]) {
          ++mismatches;
        }
      } else {
        const std::size_t i = rng() % sqls.size();
        if (server.check_empty(sqls[i]) != verdicts[i]) ++mismatches;
      }
      ++queries;
    }
  });
  done.store(true);
  writer.join();

  EXPECT_EQ(mismatches.load(), 0u)
      << "a reader observed state differing from the quiesced run";
  EXPECT_EQ(queries.load(), kReaders * kQueriesPerReader);
  EXPECT_GT(swaps.load(), 0u) << "the writer never ran concurrently";
  const ServerStats s = server.stats();
  EXPECT_EQ(s.writer_swaps, swaps.load());
  EXPECT_GT(s.generation, gen0);
  // The churn invalidated cached plans; readers still answered correctly.
  EXPECT_GT(s.cache.invalidations, 0u);
}

// Same property through raw snapshots: a handle taken before a swap keeps
// answering from its frozen catalog while later handles see the new
// generation — the reader-side contract update() relies on.
TEST(SnapshotIsolation, OldHandlesSurviveSwapsUnchanged) {
  const std::unique_ptr<ProtocolSpec> spec = asura::make_asura();
  Server server(spec->database());
  const std::string probe = "select dirst, dirpv from D";

  Snapshot before = server.snapshot();
  const std::string before_csv = to_csv(before.catalog().query(probe).rows);

  server.update([](Database& db) {
    Table d = db.get(asura::kDirectory);
    std::vector<Value> row(d.row(0).begin(), d.row(0).end());
    row[d.schema().index_of("dirst")] = V("MESI");
    row[d.schema().index_of("dirpv")] = V("zero");
    d.append(RowView(row));
    db.put(asura::kDirectory, std::move(d));
  });

  Snapshot after = server.snapshot();
  EXPECT_EQ(to_csv(before.catalog().query(probe).rows), before_csv);
  EXPECT_NE(to_csv(after.catalog().query(probe).rows), before_csv);
  EXPECT_LT(before.generation(), after.generation());
}

}  // namespace
}  // namespace ccsql::serve
