// The packed machine state: snapshots are word vectors that restore
// exactly, whatever the ring storage of the machine that saved or restores
// them, and handlers read a consumed message correctly even when the step
// posts into the ring slot that message occupied.
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
      walker.enable_workload();
      random_walk(walker, seed, 60, [&](Machine& w) {
        const Machine::Snapshot s1 = w.snapshot();
        // The packed length varies with the messages in flight.
        std::vector<std::uint64_t> buf(s1.words.size() + 8, ~0ull);
        EXPECT_EQ(w.save(buf.data()), s1.words.size());
        EXPECT_EQ(w.state_words(), s1.words.size());
        EXPECT_EQ(buf[s1.words.size()], ~0ull);  // nothing past the end
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

/// Walks `m` from `initial` under successive seeds until its ring storage
/// has grown; returns false when no walk grew it.
bool grow_rings(Machine& m, const Machine::Snapshot& initial) {
  const std::size_t small = m.ring_capacity();
  for (unsigned seed = 1; seed <= 64 && m.ring_capacity() == small; ++seed) {
    m.restore(initial);
    random_walk(m, seed, 200, [](Machine&) {});
  }
  return m.ring_capacity() > small;
}

TEST(FlatState, GrownRingsRestoreSmallerSnapshots) {
  // Ring storage doubles on demand and never shrinks, so a grown machine
  // lays a snapshot taken before the growth out at its own size.  It must
  // still restore the same state, and replay from it identically.
  const ChannelAssignment& v = spec().assignment(asura::kAssignV5Fix);
  const SimConfig cfg = config(2, 2, 3);
  Machine m(spec(), v, cfg);
  m.enable_workload();
  const Machine::Snapshot initial = m.snapshot();
  std::vector<std::string> fingerprints;
  ASSERT_TRUE(grow_rings(m, initial)) << "no walk grew a ring";

  Machine fresh(spec(), v, cfg);
  fresh.enable_workload();
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

TEST(FlatState, RingLongerThanStorageRestoresOnAFreshMachine) {
  // With no channel assigned every message takes an unbounded dedicated
  // path, so a ring can hold more messages than the one slot a fresh
  // machine's storage starts with.  Restoring such a state must grow the
  // fresh machine's storage and give back the same words.
  const ChannelAssignment dedicated("dedicated");
  const SimConfig cfg = config(2, 2, 3);
  int longer = 0;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    Machine walker(spec(), dedicated, cfg);
    walker.enable_workload();
    random_walk(walker, seed, 80, [&](Machine& w) {
      const Machine::Snapshot s = w.snapshot();
      Machine fresh(spec(), dedicated, cfg);
      ASSERT_EQ(fresh.ring_capacity(), 1u);
      fresh.restore(s);
      if (fresh.ring_capacity() == 1) return;  // every ring fits one slot
      ++longer;
      EXPECT_EQ(fresh.snapshot().words, s.words);
      EXPECT_EQ(fresh.fingerprint(), w.fingerprint());
    });
  }
  EXPECT_GT(longer, 0) << "no walk queued two messages on one ring";
}

TEST(FlatState, SavedWordsDoNotDependOnRingLayout) {
  // Two machines walk the same path, one with ring storage grown by
  // earlier walks (and so other capacities and head offsets): every state
  // on the path saves to the same words on both.
  const ChannelAssignment& v = spec().assignment(asura::kAssignV5Fix);
  const SimConfig cfg = config(2, 2, 3);
  Machine grown(spec(), v, cfg);
  grown.enable_workload();
  const Machine::Snapshot initial = grown.snapshot();
  ASSERT_TRUE(grow_rings(grown, initial)) << "no walk grew a ring";
  for (unsigned seed = 1; seed <= 4; ++seed) {
    Machine small(spec(), v, cfg);
    small.enable_workload();
    grown.restore(initial);
    std::vector<std::vector<std::uint64_t>> path;
    int differing_layouts = 0;
    random_walk(small, seed, 150, [&](Machine& w) {
      path.push_back(w.snapshot().words);
      if (w.ring_capacity() != grown.ring_capacity()) ++differing_layouts;
    });
    std::size_t i = 0;
    random_walk(grown, seed, 150, [&](Machine& w) {
      ASSERT_LT(i, path.size());
      EXPECT_EQ(w.snapshot().words, path[i++]);
    });
    EXPECT_EQ(i, path.size());
    EXPECT_GT(differing_layouts, 0);
  }
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
    if (e.name != "sim.step") continue;
    std::string ctl, msg;
    for (const obs::Arg& a : e.args) {
      if (a.key == "ctl") ctl = a.value;
      if (a.key == "msg") msg = a.value;
    }
    if (ctl == asura::kMemory) served.push_back(msg);
  }
  EXPECT_EQ(served, std::vector<std::string>{"mread(a0 0->0)"});
}

}  // namespace
}  // namespace ccsql::sim
