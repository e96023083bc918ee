// Parallel, symmetry-reduced explicit-state exploration (checks/reach.hpp).
//
// The sequential explore() in reach.cpp is the oracle: a 100-line BFS over
// string fingerprints.  This file is the version that actually scales —
// the same wave-by-wave BFS semantics, executed as morsels on the shared
// work-stealing pool:
//
//  - The visited set stores 128-bit hashes of the canonical numeric state
//    encoding (sim::Machine::encode_state) instead of fingerprint strings.
//  - With symmetry on, each successor is hashed through every relabeling in
//    the quad/address symmetry group and keyed on the orbit minimum, so an
//    entire orbit of equivalent states costs one visited-set entry.
//  - Each wave expands in parallel; lookups against the visited set are
//    lock-free because inserts happen only in the single-threaded merge
//    between waves.  The merge walks morsel outputs in frontier order, so
//    every aggregate — and the choice of orbit representative when two
//    states in one wave collide — is a pure function of the input, never of
//    the worker schedule.  That is what makes results identical at any
//    --jobs value.
//  - Parent pointers (state id -> predecessor id + action) turn any
//    deadlock into a replayable action trace, and every distinct wedged-
//    channel set is recorded so VCG cycles can be classified against the
//    deadlocks that actually occur.
#include "checks/reach.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pool.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "sim/machine.hpp"

namespace ccsql {
namespace {

using sim::Machine;
using Hash128 = std::array<std::uint64_t, 2>;

constexpr std::uint64_t kNoParent = ~0ull;

/// The visited set: 64 open-addressed tables of 128-bit keys, linear
/// probing, at most half full, so per-table rehash cost stays bounded and
/// a key costs 16-32 bytes with no node allocation.  Both key lanes are
/// splitmix-avalanched: h[0] picks the bucket and h[1] the shard.  The
/// all-zero key marks an empty bucket, so that one key lives in a flag.
/// Phase discipline instead of locks: wave expansion only calls contains()
/// (many threads, no writers), the inter-wave merge only calls insert()
/// (one thread, no readers) — the pool's group barrier orders the phases.
class ShardedVisited {
 public:
  ShardedVisited() : shards_(kShards) {}

  [[nodiscard]] bool contains(const Hash128& h) const {
    if (h == Hash128{}) return has_zero_;
    const Shard& s = shards_[shard_of(h)];
    if (s.slots.empty()) return false;
    return s.slots[s.probe(h)] == h;
  }
  /// Merge phase only.  True when `h` was new.
  bool insert(const Hash128& h) {
    if (h == Hash128{}) return !std::exchange(has_zero_, true);
    Shard& s = shards_[shard_of(h)];
    if (2 * (s.used + 1) > s.slots.size()) s.grow();
    Hash128& slot = s.slots[s.probe(h)];
    if (slot == h) return false;
    slot = h;
    ++s.used;
    return true;
  }
  /// Bytes the tables hold.
  [[nodiscard]] std::size_t bytes() const {
    std::size_t total = 0;
    for (const Shard& s : shards_) total += s.slots.size() * sizeof(Hash128);
    return total;
  }

 private:
  struct Shard {
    std::vector<Hash128> slots;  // power-of-two size; {0, 0} = empty
    std::size_t used = 0;
    /// The bucket holding `h`, or the empty bucket where it would go.
    [[nodiscard]] std::size_t probe(const Hash128& h) const {
      const std::size_t mask = slots.size() - 1;
      std::size_t i = static_cast<std::size_t>(h[0]) & mask;
      while (slots[i] != h && slots[i] != Hash128{}) i = (i + 1) & mask;
      return i;
    }
    void grow() {
      std::vector<Hash128> old(std::max<std::size_t>(64, 2 * slots.size()));
      old.swap(slots);
      for (const Hash128& h : old) {
        if (h != Hash128{}) slots[probe(h)] = h;
      }
    }
  };
  static constexpr std::size_t kShards = 64;
  static std::size_t shard_of(const Hash128& h) noexcept {
    return static_cast<std::size_t>(h[1]) & (kShards - 1);
  }
  std::vector<Shard> shards_;
  bool has_zero_ = false;
};

/// The structural symmetry group of a configuration: every permutation pi
/// of quads whose home classes ({a : a % n_quads == h}) map onto classes of
/// equal size, combined with every address bijection that sends class h
/// onto class pi(h).  home_of commutes with each relabeling by
/// construction, so each one is an automorphism of the transition system.
std::vector<Machine::Relabeling> symmetry_group(int n_quads, int n_addrs) {
  std::vector<Machine::Relabeling> out;
  std::vector<std::vector<sim::Addr>> cls(static_cast<std::size_t>(n_quads));
  for (sim::Addr a = 0; a < n_addrs; ++a) {
    cls[static_cast<std::size_t>(a % n_quads)].push_back(a);
  }
  std::vector<sim::QuadId> perm(static_cast<std::size_t>(n_quads));
  for (int q = 0; q < n_quads; ++q) perm[static_cast<std::size_t>(q)] = q;
  do {
    bool sizes_ok = true;
    for (std::size_t h = 0; h < cls.size(); ++h) {
      if (cls[h].size() != cls[static_cast<std::size_t>(perm[h])].size()) {
        sizes_ok = false;
      }
    }
    if (!sizes_ok) continue;
    // Enumerate the product of per-class permutations of the target class.
    std::vector<std::vector<sim::Addr>> target(cls.size());
    for (std::size_t h = 0; h < cls.size(); ++h) {
      target[h] = cls[static_cast<std::size_t>(perm[h])];
    }
    std::function<void(std::size_t)> emit = [&](std::size_t h) {
      if (h == cls.size()) {
        Machine::Relabeling r;
        r.quad = perm;
        r.addr.resize(static_cast<std::size_t>(n_addrs));
        for (std::size_t hh = 0; hh < cls.size(); ++hh) {
          for (std::size_t k = 0; k < cls[hh].size(); ++k) {
            r.addr[static_cast<std::size_t>(cls[hh][k])] = target[hh][k];
          }
        }
        out.push_back(std::move(r));
        return;
      }
      std::sort(target[h].begin(), target[h].end());
      do {
        emit(h + 1);
      } while (std::next_permutation(target[h].begin(), target[h].end()));
    };
    emit(0);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

struct ParentEdge {
  std::uint64_t parent = kNoParent;
  Machine::Action act{};
};

/// Machine states packed back to back in one word buffer (Machine::save
/// output, variable length), so a wave's frontier or a lane's successors
/// cost one growing allocation rather than one per state.
class StateArena {
 public:
  /// Appends the machine's current state.
  void push(const Machine& m) {
    const std::size_t at = words_.size();
    words_.resize(at + m.state_words());
    m.save(words_.data() + at);
    start_.push_back(at);
  }
  /// Appends state `i` of another arena.
  void push(const StateArena& other, std::size_t i) {
    const std::size_t at = words_.size();
    words_.insert(words_.end(), other.words_.begin() + other.begin(i),
                  other.words_.begin() + other.end(i));
    start_.push_back(at);
  }
  [[nodiscard]] const std::uint64_t* operator[](std::size_t i) const {
    return words_.data() + start_[i];
  }
  [[nodiscard]] std::size_t size() const { return start_.size(); }
  void clear() {
    words_.clear();
    start_.clear();
  }
  /// Bytes held: capacity, or only what the states fill.
  [[nodiscard]] std::size_t capacity_bytes() const {
    return words_.capacity() * sizeof(std::uint64_t) +
           start_.capacity() * sizeof(std::size_t);
  }
  [[nodiscard]] std::size_t used_bytes() const {
    return words_.size() * sizeof(std::uint64_t) +
           start_.size() * sizeof(std::size_t);
  }

 private:
  [[nodiscard]] std::size_t begin(std::size_t i) const { return start_[i]; }
  [[nodiscard]] std::size_t end(std::size_t i) const {
    return i + 1 < start_.size() ? start_[i + 1] : words_.size();
  }
  std::vector<std::uint64_t> words_;
  std::vector<std::size_t> start_;
};

/// A successor produced during wave expansion, pending the merge's
/// visited-set decision; its state is the same index of its lane's arena.
struct Candidate {
  Hash128 hash{};
  std::uint64_t parent = 0;
  Machine::Action act{};
};

/// One pool lane's expansion output for a wave: the successors of every
/// morsel the lane ran, in the order it ran them.  One buffer per lane,
/// reused across waves, holds at most one wave's successors.  Cache-line
/// aligned: lanes append to their own buffers concurrently.
struct alignas(64) LaneOut {
  std::vector<Candidate> candidates;
  StateArena states;  // parallel to candidates
};

/// One morsel's expansion output: its successors' range in its lane's
/// buffer, plus its findings.  Slot-per-morsel and walked in morsel order,
/// per the pool's determinism contract.
struct MorselOut {
  std::size_t lane = 0;
  std::size_t first = 0, last = 0;  // candidate range in lane_outs[lane]
  std::vector<std::pair<std::string, std::string>> violations;  // raw, suffix
  std::vector<std::size_t> deadlocks;  // frontier indices
  std::uint64_t transitions = 0;
  std::uint64_t dedup_hits = 0;

  void clear() {
    violations.clear();
    deadlocks.clear();
    transitions = dedup_hits = 0;
  }
};

}  // namespace

ReachParallelResult explore_parallel(const ProtocolSpec& spec,
                                     const ChannelAssignment& v,
                                     const ReachParallelConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  CCSQL_SPAN(span, "reach.explore_parallel", "checks");

  sim::SimConfig sim_cfg;
  sim_cfg.n_quads = config.n_quads;
  sim_cfg.n_addrs = config.n_addrs;
  sim_cfg.channel_capacity = config.channel_capacity;
  sim_cfg.transactions_per_node = config.ops_per_node;
  sim_cfg.transactions_by_node = config.ops_by_node;
  sim_cfg.workload_ops = config.inject_ops;

  core::Pool& pool = core::Pool::global();
  const std::size_t jobs =
      config.jobs != 0 ? config.jobs : core::Pool::default_jobs();
  const std::size_t lanes = pool.size() + 1;

  // One Machine per lane (workers plus the caller), created on first touch:
  // a machine carries six table indexes, so lanes that never run a morsel
  // should not pay for one.
  std::vector<std::unique_ptr<Machine>> machines(lanes);
  const std::unique_ptr<std::once_flag[]> machine_once(
      new std::once_flag[lanes]);
  auto lane_machine = [&]() -> Machine& {
    const auto lane = static_cast<std::size_t>(core::Pool::worker_id() + 1);
    std::call_once(machine_once[lane], [&, lane] {
      auto m = std::make_unique<Machine>(spec, v, sim_cfg);
      m->enable_workload();
      machines[lane] = std::move(m);
    });
    return *machines[lane];
  };

  // Per-node budgets make quads distinguishable, so the permutation group
  // is only sound under uniform budgets.
  const bool symmetric_config = config.ops_by_node.empty();
  const std::vector<Machine::Relabeling> group =
      (config.symmetry && symmetric_config)
          ? symmetry_group(config.n_quads, config.n_addrs)
          : std::vector<Machine::Relabeling>{};

  ReachParallelResult result;
  result.canon_group = group.empty() ? 1 : group.size();
  result.complete = true;

  ShardedVisited visited;
  std::vector<ParentEdge> parents;
  // This wave's states and their ids, the next wave's, the per-lane
  // successor buffers and the per-morsel records: all kept across waves so
  // their buffers are reused.
  StateArena frontier, next;
  std::vector<std::uint64_t> ids, next_ids;
  std::vector<LaneOut> lane_outs(lanes);
  std::vector<MorselOut> outs;

  // The explorer's bytes, sampled after each merge: the visited set,
  // parent edges, both frontier buffers at capacity, and the wave's
  // successors at the size they fill in the lane buffers.  Every term is a
  // function of the search alone, not of which lane ran which morsel, so
  // the figure — and a max_bytes stop — is the same at any jobs value.
  obs::MemReservation mem(obs::MemTracker::Category::kExplorer, 0);
  const auto tracked_bytes = [&] {
    std::size_t bytes = visited.bytes() +
                        parents.capacity() * sizeof(ParentEdge) +
                        frontier.capacity_bytes() + next.capacity_bytes() +
                        (ids.capacity() + next_ids.capacity()) *
                            sizeof(std::uint64_t);
    for (const LaneOut& lane : lane_outs) {
      bytes += lane.candidates.size() * sizeof(Candidate) +
               lane.states.used_bytes();
    }
    return bytes;
  };

  Machine& root = lane_machine();  // the caller's lane
  visited.insert(root.canonical_hash(group));
  parents.push_back(ParentEdge{});
  frontier.push(root);
  ids.push_back(0);
  result.states = 1;

  std::unordered_set<std::string> violations_seen;
  // First deadlock state id per distinct wedged-channel set, BFS order.
  std::map<std::vector<Value>, std::uint64_t> first_by_wedge;
  std::uint64_t first_deadlock = kNoParent;

  constexpr std::size_t kGrain = 4;
  bool stop = false;
  bool truncated = false;

  while (frontier.size() != 0 && !stop) {
    ++result.waves;
    const std::size_t n = frontier.size();
    const std::size_t morsels = (n + kGrain - 1) / kGrain;
    if (outs.size() < morsels) outs.resize(morsels);
    for (LaneOut& lane : lane_outs) {
      lane.candidates.clear();
      lane.states.clear();
    }

    CCSQL_SPAN(expand_span, "reach.expand", "checks");
    expand_span.arg("wave", result.waves).arg("frontier", n);
    pool.parallel_for(
        n, kGrain, jobs,
        [&](std::size_t begin, std::size_t end, std::size_t m) {
          Machine& mach = lane_machine();
          MorselOut& out = outs[m];
          out.clear();
          out.lane = static_cast<std::size_t>(core::Pool::worker_id() + 1);
          LaneOut& lane = lane_outs[out.lane];
          out.first = lane.candidates.size();
          thread_local std::vector<Machine::Action> actions;
          for (std::size_t i = begin; i < end; ++i) {
            const std::uint64_t* state = frontier[i];
            mach.restore(state);
            mach.possible_actions(actions);
            bool any_fired = false;
            for (const auto& action : actions) {
              mach.restore(state);
              if (!mach.apply_action(action)) continue;  // blocked channel
              any_fired = true;
              ++out.transitions;
              for (const auto& e : mach.errors()) {
                out.violations.emplace_back(
                    e, "  [after " + action.to_string() + "]");
              }
              const Hash128 h = mach.canonical_hash(group);
              if (visited.contains(h)) {
                ++out.dedup_hits;
                continue;
              }
              lane.candidates.push_back(Candidate{h, ids[i], action});
              lane.states.push(mach);
            }
            if (!any_fired) {
              // Terminal state: quiescent-and-done is fine; anything else
              // with messages in flight is a global deadlock.
              mach.restore(state);
              if (!mach.quiescent()) {
                out.deadlocks.push_back(i);
              } else {
                for (const auto& e : mach.check_quiescent_state()) {
                  out.violations.emplace_back(e, "  [terminal state]");
                }
              }
            }
          }
          out.last = lane.candidates.size();
        });

    expand_span.end();

    // Merge, single-threaded, in morsel order.  BFS discovery order here is
    // exactly the sequential explorer's, so first-occurrence annotations,
    // state ids, and the first-deadlock choice all agree with the oracle.
    CCSQL_SPAN(merge_span, "reach.merge", "checks");
    next.clear();
    next_ids.clear();
    for (std::size_t m = 0; m < morsels; ++m) {
      MorselOut& out = outs[m];
      const LaneOut& lane = lane_outs[out.lane];
      result.transitions += out.transitions;
      result.dedup_hits += out.dedup_hits;
      for (auto& [raw, suffix] : out.violations) {
        if (violations_seen.insert(raw).second) {
          result.violations.push_back(raw + suffix);
        }
      }
      for (std::size_t i : out.deadlocks) {
        ++result.deadlock_states;
        Machine& mach = lane_machine();
        mach.restore(frontier[i]);
        if (first_deadlock == kNoParent) {
          first_deadlock = ids[i];
          result.deadlock_example = mach.describe_network();
        }
        first_by_wedge.try_emplace(mach.occupied_vcs(), ids[i]);
      }
      for (std::size_t c = out.first; c < out.last; ++c) {
        if (truncated) break;
        const Candidate& cand = lane.candidates[c];
        if (!visited.insert(cand.hash)) {
          ++result.dedup_hits;  // same-wave duplicate
          continue;
        }
        const std::uint64_t id = parents.size();
        parents.push_back(ParentEdge{cand.parent, cand.act});
        next.push(lane.states, c);
        next_ids.push_back(id);
        ++result.states;
        if (result.states >= config.max_states) {
          truncated = true;
          result.complete = false;
        }
      }
    }

    if (config.stop_at_first_deadlock && first_deadlock != kNoParent) {
      result.complete = false;
      stop = true;
    }
    if (truncated) stop = true;

    const std::size_t bytes = tracked_bytes();
    mem.resize(bytes);
    result.peak_bytes = std::max<std::uint64_t>(result.peak_bytes, bytes);
    if (config.max_bytes != 0 && bytes > config.max_bytes) {
      result.complete = false;
      stop = true;
    }

    merge_span.arg("wave", result.waves)
        .arg("states", result.states)
        .arg("frontier", next.size())
        .arg("bytes", bytes);
    merge_span.end();
    std::swap(frontier, next);
    std::swap(ids, next_ids);
  }

  // Parent-pointer witness reconstruction.
  const auto trace_of = [&](std::uint64_t id) {
    std::vector<Machine::Action> trace;
    for (std::uint64_t cur = id; cur != 0;) {
      const ParentEdge& e = parents[static_cast<std::size_t>(cur)];
      trace.push_back(e.act);
      cur = e.parent;
    }
    std::reverse(trace.begin(), trace.end());
    return trace;
  };
  for (const auto& [wedge, id] : first_by_wedge) {
    ReachDeadlock d;
    d.state = id;
    d.occupied = wedge;
    d.trace = trace_of(id);
    result.deadlocks.push_back(std::move(d));
  }
  std::sort(result.deadlocks.begin(), result.deadlocks.end(),
            [](const ReachDeadlock& a, const ReachDeadlock& b) {
              return a.state < b.state;
            });
  if (first_deadlock != kNoParent) {
    result.deadlock_trace = trace_of(first_deadlock);
  }

  const auto end = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(end - start).count();
  span.arg("states", result.states);
  span.arg("transitions", result.transitions);
  span.arg("deadlock_states", result.deadlock_states);
  span.arg("waves", result.waves);
  CCSQL_COUNT("reach.states", result.states);
  CCSQL_COUNT("reach.transitions", result.transitions);
  CCSQL_COUNT("reach.deadlock_states", result.deadlock_states);
  CCSQL_COUNT("reach.waves", result.waves);
  CCSQL_COUNT("reach.dedup_hits", result.dedup_hits);
  CCSQL_COUNT("reach.canon_factor", result.canon_group);
  CCSQL_OBSERVE("reach.states_per_sec",
                result.states / std::max(result.seconds, 1e-9));
  return result;
}

std::vector<CycleClassification> classify_cycles(
    const ProtocolSpec& spec, const ChannelAssignment& v,
    const std::vector<VcgCycle>& cycles, const ReachParallelConfig& config) {
  CCSQL_SPAN(span, "reach.classify_cycles", "checks");
  const ReachParallelResult r = explore_parallel(spec, v, config);
  std::vector<CycleClassification> out;
  out.reserve(cycles.size());
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    CycleClassification c;
    c.cycle_index = i;
    c.channels = cycles[i].channels;
    std::sort(c.channels.begin(), c.channels.end());
    c.channels.erase(std::unique(c.channels.begin(), c.channels.end()),
                     c.channels.end());
    c.states_searched = r.states;
    c.verdict =
        r.complete ? CycleVerdict::kUnreachable : CycleVerdict::kBudget;
    // A deadlock realizes the cycle when its wedged-channel set is exactly
    // the cycle's channel set: every channel of the cycle is blocked and
    // nothing else is, which rules out matching a composition-artifact
    // sub-cycle against a wider wedge (Figure 4 wedges {VC2, VC4}, not the
    // VC2->VC2 or VC4->VC4 self-loops the composition also reports).
    for (const ReachDeadlock& d : r.deadlocks) {
      if (d.occupied == c.channels) {
        c.verdict = CycleVerdict::kReachable;
        c.witness = d.trace;
        break;
      }
    }
    out.push_back(std::move(c));
  }
  span.arg("cycles", cycles.size());
  span.arg("states", r.states);
  return out;
}

std::string format_classification(
    const std::vector<CycleClassification>& classifications) {
  std::ostringstream os;
  if (classifications.empty()) {
    os << "no cycles to classify\n";
    return os.str();
  }
  for (const auto& c : classifications) {
    os << "cycle " << c.cycle_index << " [";
    for (std::size_t i = 0; i < c.channels.size(); ++i) {
      os << (i == 0 ? "" : " ") << c.channels[i].str();
    }
    os << "]: ";
    switch (c.verdict) {
      case CycleVerdict::kReachable:
        os << "reachable  (witness: " << c.witness.size() << " actions)";
        break;
      case CycleVerdict::kUnreachable:
        os << "unreachable  (" << c.states_searched
           << " states, search complete)";
        break;
      case CycleVerdict::kBudget:
        os << "not reached within budget  (" << c.states_searched
           << " states, search truncated)";
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ccsql
