#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "protocol/protocol_spec.hpp"
#include "sim/dispatch.hpp"
#include "sim/glue.hpp"
#include "sim/network.hpp"
#include "sim/types.hpp"

namespace ccsql::sim {

/// Outcome of a simulation run.
struct SimResult {
  bool completed = false;   // all injected transactions finished
  bool deadlocked = false;  // no progress with messages in flight
  bool stalled = false;     // hit max_steps without completing
  std::uint64_t steps = 0;
  int transactions_done = 0;
  /// Wall-clock duration of run() (throughput reporting only; every other
  /// field is deterministic for a given config and seed).
  double seconds = 0;
  /// Rows the tables could not cover (specification incompleteness) and
  /// coherence-monitor violations; empty on a healthy run.
  std::vector<std::string> errors;
  std::string deadlock_report;
  /// Per-run event counters (messages per VC, table hits/misses, stalls,
  /// cycle-model charges, events/sec).
  SimCounters counters;

  [[nodiscard]] bool healthy() const {
    return completed && !deadlocked && errors.empty();
  }
  /// Simulator events per wall-clock second (the scale-out throughput
  /// metric; also stored in counters.events_per_sec).
  [[nodiscard]] std::uint64_t events_per_sec() const {
    return counters.events_per_sec;
  }
};

/// A table-driven execution of the ASURA protocol: quads with a node each
/// (cache + node controller), a home engine per quad (directory + memory
/// controller) and a remote snoop engine, wired by finite virtual channels
/// per the chosen assignment.  Every controller step interprets a table row
/// as a guarded action (step(), DESIGN.md §15) — the simulator owns state
/// and transport, the spec's Glue what no table says, so a wrong table row
/// surfaces as a dynamic error here.
class Machine {
 public:
  /// Compiles the controller tables privately (a per-machine cost).
  Machine(const ProtocolSpec& spec, const ChannelAssignment& v,
          SimConfig config);

  /// Shares a precompiled dispatch across machines — the sweep engine's
  /// constructor: compilation is paid once, every run reuses it read-only.
  /// `tables` must outlive the machine, as must the spec it came from.
  Machine(const ProtocolSpec& spec, const ChannelAssignment& v,
          SimConfig config, std::shared_ptr<const CompiledTables> tables);

  /// Pre-establishes a line's global state: `dirst` in {I, SI, MESI}, with
  /// the given holders (sharers for SI, the single owner for MESI).
  void set_line(Addr addr, std::string_view dirst,
                const std::vector<QuadId>& holders);

  /// Scripts a processor operation (prd/pwr/pup/pwb/pfl); scripted ops are
  /// issued in order per node, each when the node controller is idle.
  void script(QuadId node, std::string_view op, Addr addr);

  /// Enables the configured workload shape (SimConfig::workload): each node
  /// issues `transactions_per_node` legal operations.
  void enable_workload();

  /// The same call under its older name.  Only the benchmark's sources
  /// (perfbench/src/flow.cpp and reach.cpp) still use it; the rest of the
  /// repository calls enable_workload().
  void enable_random_workload() { enable_workload(); }

  /// Extra scheduler steps the memory controller waits between messages
  /// (models memory latency; the Figure 4 interleaving needs a slow
  /// memory).  Also applied as the initial busy time.
  void set_memory_latency(int steps) {
    memory_latency_ = steps;
    for (auto& c : ctl_) c.cooldown = steps;
  }

  SimResult run();

  /// Quiescent-state cross-check (directory vs caches); called by run()
  /// at completion and available to tests.
  [[nodiscard]] std::vector<std::string> check_quiescent_state() const;

  // ---- Single-action interface (exhaustive exploration) --------------------
  // The explicit-state baseline (checks/reach.hpp) drives the machine one
  // atomic action at a time and snapshots/restores state between branches.

  struct Action {
    enum class Kind { kDeliver, kDrain, kInject };
    Kind kind = Kind::kDeliver;
    Network::QueueRef queue{};  // kDeliver
    QuadId node = -1;           // kDrain / kInject
    Value op{};                 // kInject (processor/device op)
    Addr addr = -1;             // kInject

    [[nodiscard]] std::string to_string() const;
  };

  /// Candidate actions in the current state.  A candidate may still fail
  /// to apply (blocked output channel): apply_action reports that.
  [[nodiscard]] std::vector<Action> possible_actions() const {
    std::vector<Action> out;
    possible_actions(out);
    return out;
  }
  /// Allocation-free variant for the explorer: replaces `out`'s contents.
  void possible_actions(std::vector<Action>& out) const;

  /// Applies one action; returns true iff the state advanced.
  bool apply_action(const Action& action);

  /// The entire mutable controller and network state, packed into one word
  /// vector: the controller arrays, then only the messages in flight (the
  /// format is Network::save's).  Errors are diagnostics, not state —
  /// restore clears them.
  struct Snapshot {
    std::vector<std::uint64_t> words;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap) { restore(snap.words.data()); }

  /// The same packing into caller storage (the explorer packs its states
  /// back to back): save() writes state_words() words and returns that
  /// count, restore() reads what a machine of the same configuration saved.
  /// The length varies with the messages in flight.
  [[nodiscard]] std::size_t state_words() const noexcept {
    return local_words_ + net_.state_words();
  }
  std::size_t save(std::uint64_t* out) const;
  void restore(const std::uint64_t* words);

  /// Message slots per network ring: storage, not state — it grows when a
  /// push or a restore needs more and never shrinks.
  [[nodiscard]] std::size_t ring_capacity() const noexcept {
    return net_.ring_capacity();
  }

  /// The canonical encoding (encode_state under identity labels) as text:
  /// the visited-set key of the sequential explorer.
  [[nodiscard]] std::string fingerprint() const;

  // ---- Hashed canonical encodings (parallel exploration) -------------------
  // The parallel explorer (checks/reach.hpp) keys its visited set on 128-bit
  // hashes of a numeric state encoding instead of fingerprint() strings, and
  // canonicalizes modulo the protocol's structural symmetry: quads are
  // interchangeable, and so are addresses within one home class, as long as
  // both are relabeled consistently (home_of must commute with the
  // relabeling).

  /// A joint relabeling of quad and address identifiers: old id -> new id.
  /// Sound when `addr` maps every home class onto the class of the permuted
  /// home, i.e. addr[a] % n_quads == quad[a % n_quads] for all a.
  struct Relabeling {
    std::vector<QuadId> quad;
    std::vector<Addr> addr;
  };

  /// Appends the canonical numeric encoding of the current state to `out`,
  /// every quad/address id relabeled through `relabel` (identity when null).
  /// Data versions are dense-ranked per address (order-preserving), so
  /// states differing only in absolute version numbers encode equal.
  void encode_state(std::vector<std::uint64_t>& out,
                    const Relabeling* relabel = nullptr) const;

  /// Orbit-canonical hash: the minimum 128-bit hash of encode_state() over
  /// every relabeling in `group` (the identity encoding's hash when the
  /// group is empty).  Equivalent states — equal up to a group element —
  /// collapse onto one key.
  [[nodiscard]] std::array<std::uint64_t, 2> canonical_hash(
      const std::vector<Relabeling>& group) const;

  /// Virtual channels holding at least one queued message (deadlock
  /// classification: which VCG channels are actually wedged).
  [[nodiscard]] std::vector<Value> occupied_vcs() const {
    return net_.occupied_vcs();
  }

  /// True when nothing is in flight and every controller is idle.
  [[nodiscard]] bool quiescent() const;

  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }
  void clear_errors() { errors_.clear(); }

  /// Occupied-channel dump (deadlock reporting).
  [[nodiscard]] std::string describe_network() const {
    return net_.describe_blocked();
  }

  /// Event counters so far (hit/miss accounting is per-machine even when
  /// the dispatch tables are shared).
  [[nodiscard]] SimCounters counters() const;

 private:
  friend class AsuraGlue;

  // -- helpers ---------------------------------------------------------------
  [[nodiscard]] QuadId home_of(Addr a) const {
    return a % config_.n_quads;
  }
  /// Presence-vector bit of quad q (-1, a requester-less insert, is bit 0).
  static constexpr std::uint64_t pv_bit(QuadId q) { return 1ull << (q + 1); }

  // ---- Flat state (DESIGN.md §14) ------------------------------------------
  // Everything snapshot() copies lives in three trivially-copyable arrays
  // sized at construction, plus the messages in the Network's rings.
  // Directory lines, memory words, cache states and cache versions are
  // insert-only entries with a presence bit: "absent" and "present as
  // I / -1 / 0" differ.

  /// Directory entry of one (home, address) pair.
  struct DirLine {
    Value dirst;              // I / SI / MESI
    Value bdirst;             // I or a busy state
    std::uint64_t pv = 0;     // holders: bit q+1 for quad q, bit 0 for -1
    int pending = 0;          // outstanding snoop acks
    QuadId requester = -1;    // local node of the in-flight transaction
    std::int64_t held = -1;   // buffered data version
    std::int64_t txver = -1;  // data version carried by the transaction
  };
  enum : std::uint8_t { kDir = 1, kMem = 2, kCst = 4, kCver = 8 };
  /// One (quad, address) pair: the quad's home-engine entry for the
  /// address and the quad's cached copy of it.
  struct Cell {
    DirLine dir;
    std::int64_t memory = 0;
    std::int64_t cver = 0;     // cache data version
    Value cst;                 // cache line state
    std::uint8_t present = 0;  // kDir | kMem | kCst | kCver
  };
  /// One quad's controller scalars.
  struct Ctl {
    Value ncst;                 // node controller state
    Value iocst;                // I/O controller state
    Addr cur = -1;              // outstanding address
    Addr io_cur = -1;           // outstanding I/O address
    int random_remaining = 0;
    int done = 0;
    int cooldown = 0;           // memory-latency countdown
    std::uint32_t script_pos = 0;  // next entry of scripts_
    /// Phase counter of the deterministic workload shapes (kLock and
    /// friends); untouched by exploration, so encodings skip it.
    std::uint64_t wl_tick = 0;
  };

  [[nodiscard]] Cell& cell(QuadId q, Addr a) {
    return cells_[static_cast<std::size_t>(q * config_.n_addrs + a)];
  }
  [[nodiscard]] const Cell& cell(QuadId q, Addr a) const {
    return cells_[static_cast<std::size_t>(q * config_.n_addrs + a)];
  }
  [[nodiscard]] Ctl& ctl(QuadId q) { return ctl_[static_cast<std::size_t>(q)]; }
  /// Cache state, I when absent.
  [[nodiscard]] Value cst_of(QuadId q, Addr a) const {
    const Cell& c = cell(q, a);
    return (c.present & kCst) != 0 ? c.cst : invalid();
  }
  void set_cst(QuadId q, Addr a, Value v) {
    Cell& c = cell(q, a);
    c.cst = v;
    c.present |= kCst;
  }
  /// Cache version, -1 when absent.
  [[nodiscard]] std::int64_t cver_of(QuadId q, Addr a) const {
    if (a < 0) return -1;
    const Cell& c = cell(q, a);
    return (c.present & kCver) != 0 ? c.cver : -1;
  }
  /// Cache version / memory word; the first touch inserts it as 0.
  std::int64_t& entry(QuadId q, Addr a, std::int64_t Cell::*field,
                      std::uint8_t bit) {
    Cell& c = cell(q, a);
    if ((c.present & bit) == 0) {
      c.*field = 0;
      c.present |= bit;
    }
    return c.*field;
  }
  std::int64_t& cver(QuadId q, Addr a) {
    return entry(q, a, &Cell::cver, kCver);
  }
  std::int64_t& memory(QuadId q, Addr a) {
    return entry(q, a, &Cell::memory, kMem);
  }
  /// The directory entry; the first touch inserts it as I, empty.
  DirLine& line(QuadId home, Addr a) {
    Cell& c = cell(home, a);
    if ((c.present & kDir) == 0) insert_line(c);
    return c.dir;
  }
  static void insert_line(Cell& c);
  /// The invalid cache and directory state, I.
  static Value invalid();

  /// Per-address sorted distinct live data versions — the order-preserving
  /// dense rank both fingerprint() and encode_state() apply so the visited
  /// set is finite.
  struct VersionRanks;
  void rank_versions(VersionRanks& vr) const;
  /// The canonical encoding, one word at a time into `sink` (a vector for
  /// encode_state, a running hash for the hashes).
  template <class Sink>
  void encode(Sink& sink, const Relabeling* relabel,
              const VersionRanks& vr) const;

  /// Controller-table lookup with per-run hit/miss accounting (the
  /// dispatch structures may be shared across machines, so the counters
  /// live here, not there).
  std::optional<std::size_t> lookup(const ControllerDispatch& t,
                                    const Value* key) {
    auto row = t.find(key);
    if (row) {
      ++counters_.table_hits;
    } else {
      ++counters_.table_misses;
    }
    return row;
  }

  /// One step of controller `c` at quad q on `msg`, the row read as a
  /// guarded action: derive the guard, find the row, plan its sends, stall
  /// (false) unless every planned send fits, then consume `ref` (none for a
  /// message that is not queued), apply the row's sets, counts and glue
  /// effects, and post the sends.  A missing row is an error, not a stall.
  bool step(std::size_t c, QuadId q, const Network::QueueRef* ref,
            const SimMessage& msg) {
    return tables_->glue->step(*this, c, q, ref, msg);
  }
  /// The step's body (sim/step.hpp), compiled against the spec's glue type
  /// so its hooks inline; `fire_as` is a synchronous invocation inside
  /// another step (a snoop's cache command, a fill): the row's sets,
  /// counts and glue effects, no sends.
  template <class G>
  bool step_as(const G& glue, std::size_t c, QuadId q,
               const Network::QueueRef* ref, const SimMessage& msg);
  template <class G>
  void fire_as(const G& glue, std::size_t c, QuadId q, const SimMessage& msg);
  struct Frame;
  /// Records a guard with no row as an error.
  void missing_row(const Step& s);
  bool drain_outbox(QuadId q);
  bool inject(QuadId q);

  /// Steps the controller whose input triple takes a queue-head message.
  bool deliver(QuadId q, const Network::QueueRef& ref, const SimMessage& msg);

  /// net_.send plus counter/trace bookkeeping.
  void post(const SimMessage& msg, Network::VcCode code);
  /// net_.pop plus counter bookkeeping.
  void consume(const Network::QueueRef& ref);
  /// True when the global tracer wants per-event instants — guard before
  /// building strings.
  [[nodiscard]] static bool tracing() noexcept {
    return obs::Tracer::global().tracing();
  }
  /// Emits a per-step trace instant; call only under tracing().
  void trace_step(const Step& s);

  /// Issues one processor/device operation (hit handling included); true on
  /// progress.
  bool issue_op(QuadId q, Value op, Addr addr);

  /// Next (op, addr) for a deterministic workload shape (kLock etc.),
  /// legality-adjusted against the node's current cache state.
  [[nodiscard]] std::pair<Value, Addr> workload_op(QuadId q) const;

  /// One random-workload (op, addr) draw; advances rng_.
  [[nodiscard]] std::pair<Value, Addr> random_op(QuadId q);

  void record_error(std::string what);
  void check_swmr(Addr addr);

  SimConfig config_;
  Network net_;
  int memory_latency_ = 0;
  int c2c_cost_ = 0;  // precomputed CycleModel::c2c_cycles(n_quads)

  /// The compiled controller tables — shared read-only across a sweep's
  /// machines, or privately compiled by the two-argument constructor.
  std::shared_ptr<const CompiledTables> tables_;

  std::vector<Ctl> ctl_;
  std::vector<Cell> cells_;          // [quad * n_addrs + addr]
  std::vector<std::int64_t> gv_;     // committed write version per address
  std::size_t local_words_;          // the three arrays' size in words

  /// Scripted (op, addr) lists per node: configuration, not state — a
  /// node's progress through its list is Ctl::script_pos.
  std::vector<std::vector<std::pair<Value, Addr>>> scripts_;
  /// Operations exploration may inject, by cache state: I, S, owned.
  std::array<std::vector<Value>, 3> legal_ops_;

  std::vector<std::string> errors_;
  std::mt19937 rng_;
  SimCounters counters_;
  /// Per-VC send counts by Network VC code; counters() folds these into
  /// SimCounters::per_vc_sent (a map op per posted message is hot-path
  /// cost the flat array avoids).
  std::vector<std::uint64_t> vc_sent_;
  std::uint64_t now_ = 0;

  // Reusable hot-path scratch (the scheduler loop is allocation-free in
  // steady state; these only grow to high-water marks).  A step's glue may
  // run nested steps (a snoop applies its cache command, a fill its cache
  // fill: two deep at most), so steps_ is a stack.
  std::vector<Network::QueueRef> queue_scratch_;
  std::array<Step, 4> steps_;
  std::size_t depth_ = 0;
};

}  // namespace ccsql::sim
