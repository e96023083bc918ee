#include "sim/dispatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "protocol/asura/asura.hpp"
#include "protocol/controller_spec.hpp"
#include "relational/error.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"

namespace ccsql::sim {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

// Machine fingerprints encode interned symbol ids, so the pinned goldens
// below hold only if the spec interns its symbols before any test-local
// one: build it during static initialization, ahead of every test body.
[[maybe_unused]] const ProtocolSpec& g_spec_interned_first = spec();

Table sample() {
  Table t(Schema::of({"inmsg", "st", "out"}));
  t.append({V("req"), V("idle"), V("grant")});
  t.append({V("req"), V("busy"), V("retry")});
  t.append({V("resp"), V("busy"), V("done")});
  return t;
}

TEST(ControllerDispatch, FindsUniqueRow) {
  Table t = sample();
  ControllerDispatch d(t, {"inmsg", "st"});
  const auto out = d.col("out");
  const Value hit[] = {V("req"), V("busy")};
  auto row = d.find(hit);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(d.at(*row, out), V("retry"));
  // Both symbols are in their columns' domains, but no row pairs them.
  const Value unpaired[] = {V("resp"), V("idle")};
  EXPECT_FALSE(d.find(unpaired).has_value());
}

TEST(ControllerDispatch, SingleColumnKey) {
  Table t(Schema::of({"inmsg", "out"}));
  t.append({V("a"), V("x")});
  t.append({V("b"), V("y")});
  ControllerDispatch d(t, {"inmsg"});
  const auto out = d.col("out");
  const Value key[] = {V("b")};
  auto row = d.find(key);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(d.at(*row, out), V("y"));
}

TEST(ControllerDispatch, DuplicateKeyRejected) {
  Table t(Schema::of({"inmsg", "out"}));
  t.append({V("a"), V("x")});
  t.append({V("a"), V("y")});
  EXPECT_THROW(ControllerDispatch(t, {"inmsg"}), Error);
}

TEST(ControllerDispatch, UnknownKeyColumnRejected) {
  Table t = sample();
  EXPECT_THROW(ControllerDispatch(t, {"nope"}), BindError);
}

TEST(ControllerDispatch, NullValuesInKeysWork) {
  Table t(Schema::of({"inmsg", "out"}));
  t.append({null_value(), V("x")});
  t.append({V("a"), V("y")});
  ControllerDispatch d(t, {"inmsg"});
  const auto out = d.col("out");
  const Value key[] = {null_value()};
  auto row = d.find(key);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(d.at(*row, out), V("x"));
}

/// Three key columns of 200 distinct symbols each pack into 8,000,000 slots,
/// past kDenseLimit: construction throws instead of allocating.
TEST(ControllerDispatch, KeySpaceOverflowThrows) {
  Table t(Schema::of({"a", "b", "c"}));
  for (int i = 0; i < 200; ++i) {
    const std::string n = std::to_string(i);
    t.append({V("ovf_a" + n), V("ovf_b" + n), V("ovf_c" + n)});
  }
  ASSERT_GT(std::size_t{200} * 200 * 200, ControllerDispatch::kDenseLimit);
  try {
    ControllerDispatch d(t, {"a", "b", "c"});
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("8000000 slots"), std::string::npos)
        << e.what();
  }
  // Two of the columns fit.
  EXPECT_NO_THROW(ControllerDispatch(t, {"a", "b"}));
}

/// One simulated controller's key and the output columns its compiled row
/// effects come from — restated here so the oracle below does not trust
/// the compiler's own lists.
struct DispatchCase {
  const char* table;
  std::vector<std::string> keys;
  std::vector<std::array<std::string, 3>> sends;  // type, source, dest
  std::vector<std::pair<std::string, std::string>> sets, counts;
};

const std::vector<DispatchCase>& simulated() {
  static const std::vector<DispatchCase> cases = {
      {asura::kDirectory,
       {"inmsg", "dirst", "dirlookup", "dirpv", "bdirst", "bdirpv"},
       {{"locmsg", "locmsgsrc", "locmsgdest"},
        {"remmsg", "remmsgsrc", "remmsgdest"},
        {"memmsg", "memmsgsrc", "memmsgdest"}},
       {{"nxtdirst", "dirst"}, {"nxtbdirst", "bdirst"}},
       {{"nxtdirpv", "dirpv"}, {"nxtbdirpv", "bdirpv"}}},
      {asura::kMemory, {"inmsg"}, {{"outmsg", "outmsgsrc", "outmsgdest"}},
       {}, {}},
      {asura::kNode,
       {"inmsg", "ncst"},
       {{"netmsg", "netmsgsrc", "netmsgdest"}},
       {{"nxtncst", "ncst"}},
       {}},
      {asura::kCache,
       {"inmsg", "cst"},
       {{"outmsg", "outmsgsrc", "outmsgdest"}},
       {{"nxtcst", "cst"}},
       {}},
      {asura::kRemoteSnoop,
       {"inmsg", "rsnst"},
       {{"cmdmsg", "cmdmsgsrc", "cmdmsgdest"},
        {"homemsg", "homemsgsrc", "homemsgdest"}},
       {{"nxtrsnst", "rsnst"}},
       {}},
      {asura::kIo,
       {"inmsg", "iocst"},
       {{"outmsg", "outmsgsrc", "outmsgdest"}},
       {{"nxtiocst", "iocst"}},
       {}},
  };
  return cases;
}

/// The sets or counts row `r` should compile to: every non-NULL cell of
/// the restated columns, with its guard column's index.
std::vector<std::pair<std::size_t, Value>> updates_of(
    const Table& t, const DispatchCase& c,
    const std::vector<std::pair<std::string, std::string>>& cols,
    std::size_t r) {
  std::vector<std::pair<std::size_t, Value>> out;
  for (const auto& [col, field] : cols) {
    const Value v = t.column(col)[r];
    const auto k = std::find(c.keys.begin(), c.keys.end(), field);
    if (!v.is_null()) {
      out.emplace_back(static_cast<std::size_t>(k - c.keys.begin()), v);
    }
  }
  return out;
}

std::vector<std::pair<std::size_t, Value>> updates_of(
    std::span<const ControllerDispatch::Update> compiled) {
  std::vector<std::pair<std::size_t, Value>> out;
  for (const auto& u : compiled) out.emplace_back(u.key, u.value);
  return out;
}

/// The compiled dispatch of every simulated controller, in the order above.
std::vector<const ControllerDispatch*> dispatches(const CompiledTables& ct) {
  std::vector<const ControllerDispatch*> out;
  for (const DispatchCase& c : simulated()) {
    out.push_back(&ct.ctl[ct.index_of(c.table)]);
  }
  return out;
}

/// find() with a runtime-length key (the tables key on 1, 2 or 6 columns).
std::optional<std::size_t> find_key(const ControllerDispatch& d,
                                    const std::vector<Value>& k) {
  if (k.size() != d.key_columns().size()) {
    ADD_FAILURE() << k.size() << " key values for "
                  << d.key_columns().size() << " key columns";
    return std::nullopt;
  }
  return d.find(k.data());
}

/// The test-local oracle: a linear scan for the first row whose key columns
/// equal `key`.
std::optional<std::size_t> scan(const Table& t,
                                const std::vector<std::string>& keys,
                                const std::vector<Value>& key) {
  std::vector<ColumnView> cols;
  for (const auto& k : keys) cols.push_back(t.column(k));
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    bool match = true;
    for (std::size_t k = 0; k < cols.size() && match; ++k) {
      match = cols[k][r] == key[k];
    }
    if (match) return r;
  }
  return std::nullopt;
}

std::vector<Value> key_of(const Table& t, const std::vector<std::string>& keys,
                          std::size_t row) {
  std::vector<Value> key;
  for (const auto& k : keys) key.push_back(t.column(k)[row]);
  return key;
}

/// Every row of every simulated controller's compiled dispatch: its key
/// finds that row (the first and only match of a linear scan), and every
/// output-column handle reads what Table::at reads by name.  Keys that take
/// one column from another row probe in-domain tuples the table may lack;
/// dispatch and scan must agree on those too.
TEST(ControllerDispatch, AllSixMatchLinearScanOnEveryRow) {
  const auto tables = CompiledTables::compile(spec());
  ASSERT_EQ(tables->ctl.size(), simulated().size());
  const auto compiled = dispatches(*tables);
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    const DispatchCase& c = simulated()[i];
    const ControllerDispatch& d = *compiled[i];
    SCOPED_TRACE(c.table);
    const Table& t = spec().database().get(c.table);
    ASSERT_EQ(&d.table(), &t);
    EXPECT_EQ(d.key_columns(), c.keys);
    ASSERT_GT(t.row_count(), 0u);
    for (std::size_t r = 0; r < t.row_count(); ++r) {
      // The row's compiled effects are its cells: the non-NULL sends with
      // their roles, in triple order, and the non-NULL sets and counts.
      std::vector<std::array<Value, 3>> sends;
      for (const auto& [type, src, dst] : c.sends) {
        if (t.column(type)[r].is_null()) continue;
        sends.push_back(
            {t.column(type)[r], t.column(src)[r], t.column(dst)[r]});
      }
      std::vector<std::array<Value, 3>> compiled;
      for (const auto& send : d.sends(r)) {
        compiled.push_back({send.type, send.src, send.dst});
      }
      EXPECT_EQ(compiled, sends) << "sends of row " << r;
      EXPECT_EQ(updates_of(d.sets(r)), updates_of(t, c, c.sets, r))
          << "sets of row " << r;
      EXPECT_EQ(updates_of(d.counts(r)), updates_of(t, c, c.counts, r))
          << "counts of row " << r;
      const std::vector<Value> key = key_of(t, c.keys, r);
      const auto found = find_key(d, key);
      ASSERT_TRUE(found.has_value()) << "row " << r;
      EXPECT_EQ(*found, r);
      EXPECT_EQ(scan(t, c.keys, key), std::optional<std::size_t>(r));
      for (std::size_t h = 0; h < d.resolved().size(); ++h) {
        const std::string& name = d.resolved()[h];
        EXPECT_EQ(d.at(r, static_cast<ControllerDispatch::Col>(h)),
                  t.at(r, t.schema().index_of(name)))
            << name << " at row " << r;
      }
      const std::vector<Value> other =
          key_of(t, c.keys, (r * 7 + 3) % t.row_count());
      for (std::size_t k = 0; k < key.size(); ++k) {
        std::vector<Value> spliced = key;
        spliced[k] = other[k];
        EXPECT_EQ(find_key(d, spliced), scan(t, c.keys, spliced));
      }
    }
  }
}

TEST(ControllerDispatch, MissesAgree) {
  const Table& cc = spec().database().get(asura::kCache);
  ControllerDispatch dense(cc, {"inmsg", "cst"});
  // A symbol that never appears in the key columns, and a legal symbol in
  // the wrong column.
  const Value nosuch = Symbol::intern("definitely-not-a-message");
  const Value st = Symbol::intern("I");
  const Value foreign_first[] = {nosuch, st};
  EXPECT_FALSE(dense.find(foreign_first).has_value());
  EXPECT_FALSE(scan(cc, {"inmsg", "cst"}, {nosuch, st}).has_value());
  const Value foreign_second[] = {st, nosuch};
  EXPECT_FALSE(dense.find(foreign_second).has_value());
  EXPECT_FALSE(scan(cc, {"inmsg", "cst"}, {st, nosuch}).has_value());

  // The same probes against every simulated controller: a foreign symbol
  // in any key position misses.
  const auto tables = CompiledTables::compile(spec());
  const auto compiled = dispatches(*tables);
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    const DispatchCase& c = simulated()[i];
    SCOPED_TRACE(c.table);
    const Table& t = spec().database().get(c.table);
    const std::vector<Value> key = key_of(t, c.keys, 0);
    for (std::size_t k = 0; k < key.size(); ++k) {
      std::vector<Value> probe = key;
      probe[k] = nosuch;
      EXPECT_FALSE(find_key(*compiled[i], probe).has_value()) << c.keys[k];
      EXPECT_FALSE(scan(t, c.keys, probe).has_value()) << c.keys[k];
    }
  }
}

/// Every output column of every simulated controller is classified: a
/// send (an output triple's type, source or destination column), a set, a
/// count, a glue read (resolved by the spec's Glue), or unread.  The glue
/// reads and the unread columns are pinned, so a new output column has to
/// be given a meaning here on purpose.
TEST(CompiledTables, EveryOutputColumnIsClassified) {
  const auto tables = CompiledTables::compile(spec());
  std::vector<std::string> glue, unread;
  for (const ControllerDispatch& d : tables->ctl) {
    const ControllerSpec& c = spec().controller(d.name());
    std::map<std::string, std::string> kind;
    for (const MessageTriple& t : c.output_triples()) {
      kind[t.msg] = kind[t.src] = kind[t.dst] = "send";
    }
    for (const auto& [column, field] : c.sim().sets) kind[column] = "set";
    for (const auto& [column, field] : c.sim().counts) kind[column] = "count";
    for (const std::string& name : d.resolved()) kind.emplace(name, "glue");
    for (const Column& col : c.schema()->columns()) {
      if (col.kind != ColumnKind::kOutput) continue;
      const auto it = kind.find(col.name);
      if (it == kind.end()) {
        unread.push_back(d.name() + "." + col.name);
      } else if (it->second == "glue") {
        glue.push_back(d.name() + "." + col.name);
      }
    }
  }
  EXPECT_EQ(glue, (std::vector<std::string>{"D.bdirop", "D.datapath",
                                            "M.memop", "NC.fillmsg",
                                            "NC.nccmpl", "IOC.devmsg"}));
  // Resource columns (the request/response queue a port uses), the
  // directory-update and completion flags, and the processor-bound message.
  EXPECT_EQ(unread, (std::vector<std::string>{
                        "D.locmsgres", "D.remmsgres", "D.memmsgres",
                        "D.dirupd", "D.cmpl", "M.outmsgres", "M.mcmpl",
                        "NC.procmsg"}));
}

TEST(CompiledTables, DenseIsSharedAcrossMachines) {
  auto tables = CompiledTables::compile(spec());
  SimConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 4;
  cfg.channel_capacity = 2;
  cfg.transactions_per_node = 10;
  Machine a(spec(), spec().assignment(asura::kAssignV5Fix), cfg, tables);
  Machine b(spec(), spec().assignment(asura::kAssignV5Fix), cfg, tables);
  a.enable_workload();
  b.enable_workload();
  const SimResult ra = a.run();
  const SimResult rb = b.run();
  EXPECT_TRUE(ra.healthy());
  EXPECT_TRUE(rb.healthy());
  // Same compiled tables, same config, same seed: identical trajectories.
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

/// Machine-level replays pinned to golden values.  Each is the outcome the
/// dense and the since-deleted hashed dispatch engines both produced for
/// the configuration, so a dispatch change that alters any lookup shows up
/// as a changed trajectory.  The fingerprint is pinned as its FNV-1a hash.
struct Golden {
  Workload workload;
  unsigned seed;
  std::uint64_t fingerprint_fnv;
  std::uint64_t steps;
  std::uint64_t msgs_sent;
  std::uint64_t cycles;
  std::uint64_t table_hits;
  std::uint64_t vc_null, vc0, vc1, vc2, vc3;
};

constexpr Golden kRandomGoldens[] = {
    {Workload::kRandom, 7, 0x3cf509c5718a0c2fULL, 255, 1260, 16598, 1845,
     137, 398, 104, 223, 398},
    {Workload::kRandom, 1234, 0x81a415931f3a844eULL, 242, 1206, 15174, 1741,
     123, 395, 96, 197, 395},
};
constexpr Golden kShapedGoldens[] = {
    {Workload::kLock, 7, 0x8ec8f36ee0248813ULL, 318, 1374, 12648, 1829, 99,
     501, 87, 186, 501},
    {Workload::kProducerConsumer, 7, 0x219d5a597b59dfabULL, 244, 1572, 20824,
     2564, 160, 442, 224, 304, 442},
    {Workload::kFalseSharing, 7, 0x439ef7837824fe4dULL, 182, 816, 7332, 1095,
     57, 296, 55, 112, 296},
    {Workload::kStreaming, 7, 0x863ee85348855993ULL, 232, 1460, 20516, 2452,
     160, 384, 224, 308, 384},
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

SweepRun golden_cell(const Golden& g) {
  SweepRun cell;
  cell.config.n_quads = 4;
  cell.config.n_addrs = 8;
  cell.config.channel_capacity = 2;
  cell.config.transactions_per_node = 40;
  cell.config.workload = g.workload;
  cell.config.seed = g.seed;
  cell.assignment = asura::kAssignV5Fix;
  cell.memory_latency = 3;
  return cell;
}

void expect_golden(const Golden& g, const SimResult& r) {
  ASSERT_TRUE(r.healthy());
  EXPECT_EQ(r.steps, g.steps);
  EXPECT_EQ(r.transactions_done, 160);
  EXPECT_EQ(r.counters.msgs_sent, g.msgs_sent);
  EXPECT_EQ(r.counters.msgs_recv, g.msgs_sent);
  EXPECT_EQ(r.counters.cycles, g.cycles);
  EXPECT_EQ(r.counters.table_hits, g.table_hits);
  EXPECT_EQ(r.counters.table_misses, 0u);
  const std::map<Value, std::uint64_t> vcs = {
      {null_value(), g.vc_null}, {V("VC0"), g.vc0}, {V("VC1"), g.vc1},
      {V("VC2"), g.vc2},         {V("VC3"), g.vc3}};
  EXPECT_EQ(r.counters.per_vc_sent, vcs);
}

/// Each golden through a privately compiled Machine, then the whole set as
/// one sweep on shared tables at several lane counts.
template <std::size_t N>
void replay_goldens(const Golden (&goldens)[N]) {
  std::vector<SweepRun> grid;
  for (const Golden& g : goldens) {
    SCOPED_TRACE(std::string(workload_name(g.workload)) + " seed " +
                 std::to_string(g.seed));
    const SweepRun cell = golden_cell(g);
    Machine m(spec(), spec().assignment(cell.assignment), cell.config);
    m.set_memory_latency(cell.memory_latency);
    m.enable_workload();
    expect_golden(g, m.run());
    EXPECT_EQ(fnv1a(m.fingerprint()), g.fingerprint_fnv);
    grid.push_back(cell);
  }
  const SweepEngine engine(spec());
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const SweepResult swept = engine.run(grid, jobs);
    ASSERT_EQ(swept.runs.size(), N);
    for (std::size_t i = 0; i < N; ++i) expect_golden(goldens[i], swept.runs[i]);
  }
}

TEST(DispatchGolden, RandomWorkloadReplays) { replay_goldens(kRandomGoldens); }

TEST(DispatchGolden, ShapedWorkloadsReplay) { replay_goldens(kShapedGoldens); }

}  // namespace
}  // namespace ccsql::sim
