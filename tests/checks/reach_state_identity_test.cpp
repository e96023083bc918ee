// State identity of the flat machine layout.  The explorer keys states on
// Machine::encode_state (fingerprint() is its text form), so two checks pin
// that key down: it is exactly as fine as before — the pinned state counts
// — and never too coarse: states sharing a key behave identically, one
// step at a time, which is what deduplicating them assumes.
#include <deque>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "checks/reach.hpp"
#include "protocol/asura/asura.hpp"
#include "sim/machine.hpp"

namespace ccsql {
namespace {

sim::SimConfig config(int quads, int addrs, int ops) {
  sim::SimConfig cfg;
  cfg.n_quads = quads;
  cfg.n_addrs = addrs;
  cfg.channel_capacity = 1;
  cfg.transactions_per_node = ops;
  return cfg;
}

/// Everything one step from `state` can show: each candidate action, whether
/// it fired, the errors it raised and the key of the state it reached, then
/// whether the state is quiescent.
std::vector<std::string> one_step(sim::Machine& m,
                                  const sim::Machine::Snapshot& state) {
  std::vector<std::string> out;
  m.restore(state);
  for (const auto& action : m.possible_actions()) {
    m.restore(state);
    std::string line = action.to_string();
    if (m.apply_action(action)) line += " -> " + m.fingerprint();
    for (const std::string& e : m.errors()) line += " ! " + e;
    out.push_back(std::move(line));
  }
  m.restore(state);
  out.push_back(m.quiescent() ? "quiescent" : "busy");
  return out;
}

TEST(ReachStateIdentity, FingerprintsKeysAndExplorerAgreeOnTheTwoOpSpace) {
  const std::unique_ptr<ProtocolSpec> spec = asura::make_asura();
  const ChannelAssignment& v = spec->assignment(asura::kAssignV5Fix);
  sim::Machine m(*spec, v, config(2, 1, 2));
  m.enable_workload();

  // Breadth-first over fingerprint strings, collecting each state's key.
  std::unordered_set<std::string> fingerprints{m.fingerprint()};
  std::set<std::vector<std::uint64_t>> keys;
  std::deque<sim::Machine::Snapshot> frontier{m.snapshot()};
  std::vector<std::uint64_t> key;
  while (!frontier.empty()) {
    const sim::Machine::Snapshot state = std::move(frontier.front());
    frontier.pop_front();
    m.restore(state);
    key.clear();
    m.encode_state(key);
    keys.insert(key);
    for (const auto& action : m.possible_actions()) {
      m.restore(state);
      if (m.apply_action(action) && fingerprints.insert(m.fingerprint()).second) {
        frontier.push_back(m.snapshot());
      }
    }
  }

  ReachParallelConfig rc;
  rc.n_quads = 2;
  rc.n_addrs = 1;
  rc.channel_capacity = 1;
  rc.ops_per_node = 2;
  rc.jobs = 1;
  const ReachParallelResult r = explore_parallel(*spec, v, rc);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(fingerprints.size(), 37'743u);
  EXPECT_EQ(keys.size(), 37'743u);
  EXPECT_EQ(r.states, 37'743u);
  EXPECT_EQ(r.transitions, 84'255u);
}

TEST(ReachStateIdentity, StatesSharingAKeyStepAlike) {
  // Breadth-first over keys; every time a successor's key was already seen,
  // its one-step behaviour must equal that of the state first seen with it.
  const std::unique_ptr<ProtocolSpec> spec = asura::make_asura();
  struct Case {
    const char* assignment;
    sim::SimConfig cfg;
  };
  for (const Case& c : {Case{asura::kAssignV5Fix, config(2, 1, 2)},
                        Case{asura::kAssignV5, config(2, 2, 1)},
                        Case{asura::kAssignV4, config(3, 1, 1)}}) {
    sim::Machine m(*spec, spec->assignment(c.assignment), c.cfg);
    m.enable_workload();
    std::map<std::string, std::vector<std::string>> seen;
    std::deque<sim::Machine::Snapshot> frontier{m.snapshot()};
    seen.emplace(m.fingerprint(), one_step(m, frontier.front()));
    std::size_t revisits = 0;
    while (!frontier.empty() && seen.size() < 4'000) {
      const sim::Machine::Snapshot state = std::move(frontier.front());
      frontier.pop_front();
      m.restore(state);
      for (const auto& action : m.possible_actions()) {
        m.restore(state);
        if (!m.apply_action(action)) continue;
        const sim::Machine::Snapshot next = m.snapshot();
        const std::string key = m.fingerprint();
        const std::vector<std::string> step = one_step(m, next);
        const auto [it, fresh] = seen.emplace(key, step);
        if (fresh) {
          frontier.push_back(next);
        } else {
          ++revisits;
          ASSERT_EQ(step, it->second) << c.assignment << " key " << key;
        }
      }
    }
    EXPECT_GT(revisits, seen.size() / 2) << c.assignment;
  }
}

}  // namespace
}  // namespace ccsql
