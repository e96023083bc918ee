// The flat machine state: snapshots are word vectors that restore exactly,
// and handlers read a consumed message correctly even when the step posts
// into the ring slot that message occupied.
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "protocol/asura/asura.hpp"
#include "sim/machine.hpp"

namespace ccsql::sim {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

SimConfig config(int quads, int addrs, int ops) {
  SimConfig cfg;
  cfg.n_quads = quads;
  cfg.n_addrs = addrs;
  cfg.channel_capacity = 1;
  cfg.transactions_per_node = ops;
  return cfg;
}

/// Applies up to `steps` randomly chosen enabled actions, calling
/// visit(machine) after each one that fires.
template <class Visit>
void random_walk(Machine& m, unsigned seed, int steps, Visit visit) {
  std::mt19937 rng(seed);
  for (int i = 0; i < steps; ++i) {
    const std::vector<Machine::Action> actions = m.possible_actions();
    if (actions.empty()) return;
    const Machine::Snapshot before = m.snapshot();
    bool fired = false;
    for (std::size_t k = 0; k < actions.size() && !fired; ++k) {
      m.restore(before);
      fired = m.apply_action(actions[(rng() + k) % actions.size()]);
    }
    if (!fired) return;
    visit(m);
  }
}

TEST(FlatState, SnapshotRestoreSnapshotIsWordIdentical) {
  const ChannelAssignment& v = spec().assignment(asura::kAssignV5Fix);
  for (const SimConfig& cfg :
       {config(2, 1, 2), config(2, 2, 3), config(3, 3, 2)}) {
    int states = 0;
    for (unsigned seed = 1; seed <= 4; ++seed) {
      Machine walker(spec(), v, cfg);
      walker.enable_random_workload();
      random_walk(walker, seed, 60, [&](Machine& w) {
        const Machine::Snapshot s1 = w.snapshot();
        EXPECT_EQ(s1.words.size(), w.state_words());
        w.restore(s1);
        EXPECT_EQ(w.snapshot().words, s1.words);
        // A machine that never saw the state restores it word for word too.
        Machine fresh(spec(), v, cfg);
        fresh.restore(s1);
        EXPECT_EQ(fresh.snapshot().words, s1.words);
        EXPECT_EQ(fresh.fingerprint(), w.fingerprint());
        ++states;
      });
    }
    EXPECT_GT(states, 100);
  }
}

TEST(FlatState, GrownRingsRestoreSmallerSnapshots) {
  // Ring storage doubles on demand and never shrinks, so a grown machine
  // lays a snapshot taken before the growth out at its own size.  It must
  // still restore the same state, and replay from it identically.
  const ChannelAssignment& v = spec().assignment(asura::kAssignV5Fix);
  const SimConfig cfg = config(2, 2, 3);
  Machine m(spec(), v, cfg);
  m.enable_random_workload();
  const Machine::Snapshot initial = m.snapshot();
  const std::size_t small = m.state_words();
  std::vector<std::string> fingerprints;
  for (unsigned seed = 1; seed <= 64 && m.state_words() == small; ++seed) {
    m.restore(initial);
    random_walk(m, seed, 200, [](Machine&) {});
  }
  ASSERT_GT(m.state_words(), small) << "no walk grew a ring";

  Machine fresh(spec(), v, cfg);
  fresh.enable_random_workload();
  m.restore(initial);
  EXPECT_EQ(m.fingerprint(), fresh.fingerprint());
  std::vector<std::uint64_t> a, b;
  m.encode_state(a);
  fresh.encode_state(b);
  EXPECT_EQ(a, b);
  random_walk(m, 7, 100, [&](Machine& w) {
    fingerprints.push_back(w.fingerprint());
  });
  std::size_t i = 0;
  random_walk(fresh, 7, 100, [&](Machine& w) {
    ASSERT_LT(i, fingerprints.size());
    EXPECT_EQ(w.fingerprint(), fingerprints[i++]);
  });
  EXPECT_EQ(i, fingerprints.size());
}

/// Stores every event in an external vector (the tracer owns the sink).
class CaptureSink : public obs::Sink {
 public:
  explicit CaptureSink(std::vector<obs::Event>* out) : out_(out) {}
  void write(const obs::Event& e) override { out_->push_back(e); }

 private:
  std::vector<obs::Event>* out_;
};

TEST(FlatState, ConsumeThenRepostReadsTheConsumedMessage) {
  // With no channel assigned, every message takes a dedicated path, so a
  // read miss at the home quad runs its whole transaction through the ring
  // 0->0, whose storage starts at one slot: each step consumes the ring's
  // only message and posts the next one into the slot it just freed.  The
  // memory controller reports the request it served after posting its
  // reply; the report must name the request, not the reply now in its slot.
  const ChannelAssignment dedicated("dedicated");
  std::vector<obs::Event> events;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_sink(std::make_unique<CaptureSink>(&events));
  Machine m(spec(), dedicated, config(2, 2, 0));
  m.script(0, "prd", 0);
  const SimResult r = m.run();
  tracer.set_sink(nullptr);

  EXPECT_TRUE(r.healthy()) << r.deadlock_report;
  EXPECT_EQ(r.transactions_done, 1);
  std::vector<std::string> served;
  for (const obs::Event& e : events) {
    if (e.name != "sim.memory") continue;
    for (const obs::Arg& a : e.args) {
      if (a.key == "msg") served.push_back(a.value);
    }
  }
#if !defined(CCSQL_TRACING_DISABLED)
  EXPECT_EQ(served, std::vector<std::string>{"mread(a0 0->0)"});
#endif
}

}  // namespace
}  // namespace ccsql::sim
