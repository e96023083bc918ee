#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <type_traits>

#include "obs/obs.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/error.hpp"

namespace ccsql::sim {

SimCounters& SimCounters::operator+=(const SimCounters& o) {
  msgs_sent += o.msgs_sent;
  msgs_recv += o.msgs_recv;
  table_hits += o.table_hits;
  table_misses += o.table_misses;
  send_stalls += o.send_stalls;
  ops_injected += o.ops_injected;
  cache_hits += o.cache_hits;
  cycles += o.cycles;
  mem_cycles += o.mem_cycles;
  bus_cycles += o.bus_cycles;
  c2c_cycles += o.c2c_cycles;
  // Rates do not sum: the merged rate is events()/wall-clock of the whole
  // sweep, which only the aggregator knows.  Zeroing keeps merges
  // deterministic (byte-identical at any job count).
  events_per_sec = 0;
  for (const auto& [vc, n] : o.per_vc_sent) per_vc_sent[vc] += n;
  return *this;
}

std::string SimCounters::summary() const {
  std::ostringstream os;
  const auto line = [&os](std::string_view name, std::uint64_t value) {
    os << name;
    for (std::size_t i = name.size(); i < 22; ++i) os << ' ';
    os << value << "\n";
  };
  line("sim.events", events());
  line("sim.events_per_sec", events_per_sec);
  line("sim.msgs_sent", msgs_sent);
  line("sim.msgs_recv", msgs_recv);
  line("sim.table_hits", table_hits);
  line("sim.table_misses", table_misses);
  line("sim.send_stalls", send_stalls);
  line("sim.ops_injected", ops_injected);
  line("sim.cache_hits", cache_hits);
  line("sim.cycles", cycles);
  line("sim.mem_cycles", mem_cycles);
  line("sim.bus_cycles", bus_cycles);
  line("sim.c2c_cycles", c2c_cycles);
  for (const auto& [vc, n] : per_vc_sent) {
    line("sim.vc_sent." +
             std::string(vc.is_null() ? std::string_view("direct")
                                      : vc.str()),
         n);
  }
  return os.str();
}

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "random") return Workload::kRandom;
  if (name == "lock") return Workload::kLock;
  if (name == "producer-consumer" || name == "pc") {
    return Workload::kProducerConsumer;
  }
  if (name == "false-sharing" || name == "fs") return Workload::kFalseSharing;
  if (name == "streaming" || name == "stream") return Workload::kStreaming;
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kRandom: return "random";
    case Workload::kLock: return "lock";
    case Workload::kProducerConsumer: return "producer-consumer";
    case Workload::kFalseSharing: return "false-sharing";
    case Workload::kStreaming: return "streaming";
  }
  return "?";
}

namespace {

Value v_of(std::string_view s) { return Symbol::intern(s); }

/// The cache states and processor operations the workload generators, the
/// coherence checks and the line setup compare against — cached once per
/// process so the hot path never touches the intern pool's lock.
struct Sym {
  Value I = v_of("I"), S = v_of("S"), M = v_of("M"), E = v_of("E");
  Value SI = v_of("SI"), MESI = v_of("MESI"), idle = v_of("idle");
  Value prd = v_of("prd"), pwr = v_of("pwr"), pup = v_of("pup");
  Value pwb = v_of("pwb"), pfl = v_of("pfl"), pevict = v_of("pevict");
  Value patomic = v_of("patomic");
  Value iord = v_of("iord"), iowr = v_of("iowr");
};

const Sym& sym() {
  static const Sym s;
  return s;
}

/// Operations a workload may inject, by the line's cache state: I, S,
/// owned.
const std::array<std::vector<Value>, 3>& op_alphabet() {
  const Sym& sy = sym();
  static const std::array<std::vector<Value>, 3> ops{{
      {sy.prd, sy.pwr, sy.patomic, sy.iord, sy.iowr},  // I
      {sy.pup, sy.pfl, sy.pevict},                     // S
      {sy.pwb},                                        // owned
  }};
  return ops;
}

}  // namespace

bool is_workload_op(std::string_view name) {
  for (const std::vector<Value>& ops : op_alphabet()) {
    for (Value op : ops) {
      if (op.str() == name) return true;
    }
  }
  return false;
}

Machine::Machine(const ProtocolSpec& spec, const ChannelAssignment& v,
                 SimConfig config)
    : Machine(spec, v, config, CompiledTables::compile(spec)) {}

Machine::Machine(const ProtocolSpec& /*spec*/, const ChannelAssignment& v,
                 SimConfig config,
                 std::shared_ptr<const CompiledTables> tables)
    : config_(config),
      net_(v, config.n_quads, config.channel_capacity),
      c2c_cost_(CycleModel::c2c_cycles(config.n_quads)),
      tables_(std::move(tables)),
      ctl_(static_cast<std::size_t>(config.n_quads)),
      cells_(ctl_.size() * static_cast<std::size_t>(config.n_addrs)),
      gv_(static_cast<std::size_t>(config.n_addrs), 0),
      local_words_((ctl_.size() * sizeof(Ctl) + cells_.size() * sizeof(Cell) +
                    gv_.size() * sizeof(std::int64_t)) /
                   sizeof(std::uint64_t)),
      scripts_(ctl_.size()),
      rng_(config.seed) {
  // Presence vectors are bitmasks over quads (one bit kept for -1).
  if (config_.n_quads < 1 || config_.n_quads > 63 || config_.n_addrs < 1) {
    throw std::invalid_argument("sim: need 1..63 quads and >= 1 address");
  }
  // A zero-capacity channel can never accept a message: the run would stall.
  if (config_.channel_capacity < 1) {
    throw std::invalid_argument("sim: need a channel capacity >= 1");
  }
  // A budget for a quad the machine does not have would be dropped
  // silently, and a search would cover less than it was asked to.
  if (config_.transactions_by_node.size() > ctl_.size()) {
    std::string msg = "sim: transactions_by_node gives ";
    msg += std::to_string(config_.transactions_by_node.size());
    msg += " budgets for ";
    msg += std::to_string(ctl_.size());
    msg += " quads";
    throw std::invalid_argument(msg);
  }
  const Sym& sy = sym();
  for (Ctl& c : ctl_) c.ncst = c.iocst = sy.idle;
  for (Addr a = 0; a < config_.n_addrs; ++a) memory(home_of(a), a) = 0;
  for (const std::string& name : config_.workload_ops) {
    if (!is_workload_op(name)) {
      std::string msg = "sim: unknown workload operation '";
      msg += name;
      msg += "'";
      throw std::invalid_argument(msg);
    }
  }
  const auto allowed = [&](Value op) {
    return config_.workload_ops.empty() ||
           std::find(config_.workload_ops.begin(), config_.workload_ops.end(),
                     op.str()) != config_.workload_ops.end();
  };
  const std::array<std::vector<Value>, 3>& ops = op_alphabet();
  for (std::size_t k = 0; k < ops.size(); ++k) {
    for (Value op : ops[k]) {
      if (allowed(op)) legal_ops_[k].push_back(op);
    }
  }
}

Value Machine::invalid() { return sym().I; }

void Machine::insert_line(Cell& c) {
  c.dir = DirLine{};
  c.dir.dirst = c.dir.bdirst = sym().I;
  c.present |= kDir;
}

void Machine::set_line(Addr addr, std::string_view dirst,
                       const std::vector<QuadId>& holders) {
  if (addr < 0 || addr >= config_.n_addrs) {
    throw std::out_of_range("sim: set_line address out of range");
  }
  const Sym& sy = sym();
  DirLine& l = line(home_of(addr), addr);
  l.dirst = v_of(dirst);
  l.pv = 0;
  const bool owned = l.dirst == sy.MESI;
  for (QuadId q : holders) {
    l.pv |= pv_bit(q);
    set_cst(q, addr, owned ? sy.M : sy.S);
    cver(q, addr) = gv_[static_cast<std::size_t>(addr)];
  }
  if (owned && holders.size() == 1) {
    // The owner holds a version ahead of memory.
    cver(holders[0], addr) = ++gv_[static_cast<std::size_t>(addr)];
  }
}

void Machine::script(QuadId n, std::string_view op, Addr addr) {
  if (addr < 0 || addr >= config_.n_addrs) {
    throw std::out_of_range("sim: scripted address out of range");
  }
  scripts_[static_cast<std::size_t>(n)].emplace_back(v_of(op), addr);
}

void Machine::enable_workload() {
  for (std::size_t q = 0; q < ctl_.size(); ++q) {
    ctl_[q].random_remaining = q < config_.transactions_by_node.size()
                                   ? config_.transactions_by_node[q]
                                   : config_.transactions_per_node;
  }
}

void Machine::post(const SimMessage& msg, Network::VcCode code) {
  ++counters_.msgs_sent;
  // Per-VC accounting goes into a flat array by code; counters() folds it
  // into the per_vc_sent map — a map op per message would dominate post().
  if (code >= vc_sent_.size()) vc_sent_.resize(code + 1, 0);
  ++vc_sent_[code];
  counters_.bus_cycles += CycleModel::kBusCycles;
  counters_.cycles += CycleModel::kBusCycles;
  net_.send_coded(msg, code);
}

void Machine::consume(const Network::QueueRef& ref) {
  ++counters_.msgs_recv;
  net_.pop(ref);
}

void Machine::trace_step([[maybe_unused]] const Step& s) {
  CCSQL_INSTANT("sim.step", "sim", obs::arg("t", now_), obs::arg("node", s.q),
                obs::arg("ctl", tables_->ctl[s.ctl].name()),
                obs::arg("msg", s.in.to_string()), obs::arg("row", s.row));
}

void Machine::record_error(std::string what) {
  CCSQL_INSTANT("sim.error", "sim", obs::arg("t", now_),
                obs::arg("what", what));
  if (errors_.size() < 32) {
    errors_.push_back("[" + std::to_string(now_) + "] " + std::move(what));
  }
}

void Machine::check_swmr(Addr addr) {
  const Sym& sy = sym();
  int owners = 0, sharers = 0;
  for (QuadId q = 0; q < config_.n_quads; ++q) {
    const Cell& c = cell(q, addr);
    if ((c.present & kCst) == 0) continue;
    if (c.cst == sy.M || c.cst == sy.E) ++owners;
    if (c.cst == sy.S) ++sharers;
  }
  if (owners > 1 || (owners == 1 && sharers > 0)) {
    record_error("SWMR violated at addr " + std::to_string(addr) + ": " +
                 std::to_string(owners) + " owners, " +
                 std::to_string(sharers) + " sharers");
  }
}

void Machine::missing_row(const Step& s) {
  const ControllerDispatch& t = tables_->ctl[s.ctl];
  std::string what = t.name() + " table has no row for " + s.in.to_string();
  for (std::size_t k = 1; k < t.key_columns().size(); ++k) {
    what += " " + t.key_columns()[k] + "=";
    what += s.key[k].str();
  }
  record_error(std::move(what));
}

bool Machine::deliver(QuadId q, const Network::QueueRef& ref,
                      const SimMessage& msg) {
  int c = tables_->consumer(msg.type, msg.role_src, msg.role_dst);
  if (c < 0) c = tables_->glue->consumer(*this, q, msg);
  if (c < 0) {
    record_error("no controller takes " + msg.to_string());
    consume(ref);
    return true;
  }
  return step(static_cast<std::size_t>(c), q, &ref, msg);
}

bool Machine::drain_outbox(QuadId q) {
  const Network::Ring box = net_.outbox(q);
  if (box.empty()) return false;
  const SimMessage m = box[0];  // post() may re-lay the ring arena out
  const Network::VcCode code = net_.vc_code(m, home_of(m.addr));
  if (!net_.has_room(m, code)) {
    ++counters_.send_stalls;
    return false;
  }
  post(m, code);
  net_.pop_outbox(q);
  return true;
}

std::pair<Value, Addr> Machine::random_op(QuadId q) {
  const Sym& sy = sym();
  const Addr addr =
      static_cast<Addr>(rng_() % static_cast<unsigned>(config_.n_addrs));
  Value op;
  const Value cst = cst_of(q, addr);
  if (cst == sy.I) {
    // Reads and writes dominate; device I/O and atomics mixed in.
    const unsigned pick = rng_() % 8;
    if (pick < 3) {
      op = sy.prd;
    } else if (pick < 6) {
      op = sy.pwr;
    } else if (pick == 6) {
      op = sy.patomic;
    } else {
      op = (rng_() % 2 == 0) ? sy.iord : sy.iowr;
    }
  } else if (cst == sy.S) {
    // Read hit (checked by issue_op), upgrade, flush, or eviction hint.
    const unsigned pick = rng_() % 4;
    op = pick == 0 ? sy.prd
                   : (pick == 1 ? sy.pup
                                : (pick == 2 ? sy.pfl : sy.pevict));
  } else {  // M (E is never installed by this protocol's fills)
    // A flush of one's own modified line is a writeback (pfl targets
    // lines owned elsewhere or shared), so owners write hit or pwb.
    op = (rng_() % 3 != 2) ? sy.pwr : sy.pwb;
  }
  return {op, addr};
}

std::pair<Value, Addr> Machine::workload_op(QuadId q) const {
  const Sym& sy = sym();
  const std::uint64_t t = ctl_[static_cast<std::size_t>(q)].wl_tick;
  const auto addrs = static_cast<std::uint64_t>(config_.n_addrs);
  // Every shape is legality-adjusted against the node's cache state with
  // the same rules the random generator obeys (issue_op converts pwr@S to
  // pup; patomic/iord/iowr need I; pwb needs ownership), so a shape can
  // never steer the tables into an uncovered row.
  const auto write_to = [&](Addr a) -> std::pair<Value, Addr> {
    return {sy.pwr, a};  // issue_op: I -> miss, S -> pup, M -> hit
  };
  switch (config_.workload) {
    case Workload::kRandom:
      break;  // handled by random_op
    case Workload::kLock: {
      // Everyone spins on line 0 (acquire with an atomic when the line is
      // cold, write when held) and touches a private-ish payload line
      // between acquisitions — maximal invalidation traffic on the lock.
      const Addr lock = 0;
      switch (t % 3) {
        case 0:
          if (cst_of(q, lock) == sy.I) return {sy.patomic, lock};
          return write_to(lock);
        case 1: {
          const Addr payload =
              addrs > 1 ? static_cast<Addr>(
                              1 + (static_cast<std::uint64_t>(q) + t) %
                                      (addrs - 1))
                        : lock;
          return write_to(payload);
        }
        default:
          return write_to(lock);  // release
      }
    }
    case Workload::kProducerConsumer: {
      // Even nodes write the ring slot, odd nodes read it: data flows one
      // way, so fills are mostly cache-to-cache from the last producer.
      const Addr a = static_cast<Addr>(t % addrs);
      return q % 2 == 0 ? write_to(a) : std::pair<Value, Addr>{sy.prd, a};
    }
    case Workload::kFalseSharing: {
      // Node pairs hammer writes on one line per pair: the line ping-pongs
      // M-state between the two forever.
      const Addr a = static_cast<Addr>(static_cast<std::uint64_t>(q / 2) %
                                       addrs);
      return write_to(a);
    }
    case Workload::kStreaming: {
      // Sequential scan, per-node stride offset, no reuse before wrap:
      // almost every access misses and fills from memory.
      const std::uint64_t stride =
          std::max<std::uint64_t>(1, addrs / static_cast<std::uint64_t>(
                                             config_.n_quads));
      const Addr a = static_cast<Addr>(
          (static_cast<std::uint64_t>(q) * stride + t) % addrs);
      return q % 2 == 0 ? std::pair<Value, Addr>{sy.prd, a} : write_to(a);
    }
  }
  return {sy.prd, 0};
}

bool Machine::inject(QuadId q) {
  Ctl& n = ctl(q);
  if (n.ncst != sym().idle || n.iocst != sym().idle) return false;

  Value op;
  Addr addr = -1;
  const auto& script = scripts_[static_cast<std::size_t>(q)];
  if (n.script_pos < script.size()) {
    std::tie(op, addr) = script[n.script_pos++];
  } else if (n.random_remaining > 0) {
    const std::pair<Value, Addr> pick = config_.workload == Workload::kRandom
                                            ? random_op(q)
                                            : workload_op(q);
    op = pick.first;
    addr = pick.second;
    ++n.wl_tick;
    --n.random_remaining;
  } else {
    return false;
  }
  return issue_op(q, op, addr);
}

bool Machine::issue_op(QuadId q, Value op, Addr addr) {
  ++counters_.ops_injected;
  if (tables_->glue->issue(*this, q, op, addr)) {
    CCSQL_INSTANT("sim.inject", "sim", obs::arg("t", now_),
                  obs::arg("node", q), obs::arg("op", op.str()),
                  obs::arg("addr", addr));
  }
  return true;
}

SimResult Machine::run() {
  SimResult result;
  CCSQL_SPAN(run_span, "sim.run", "sim");
  run_span.arg("quads", config_.n_quads)
      .arg("addrs", config_.n_addrs)
      .arg("channel_capacity", config_.channel_capacity);
  const std::uint64_t stall_threshold =
      static_cast<std::uint64_t>(memory_latency_) + 16;
  std::uint64_t stall = 0;
  const auto t0 = std::chrono::steady_clock::now();

  for (now_ = 0; now_ < config_.max_steps; ++now_) {
    bool progress = false;
    for (Ctl& c : ctl_) {
      if (c.cooldown > 0) --c.cooldown;
    }
    for (QuadId q = 0; q < config_.n_quads; ++q) {
      net_.queues_to(q, queue_scratch_);
      for (const auto& ref : queue_scratch_) {
        const SimMessage* msg = net_.front(ref);
        if (msg == nullptr) continue;
        progress |= deliver(q, ref, *msg);
      }
      progress |= drain_outbox(q);
      progress |= inject(q);
    }

    // Completion: nothing in flight, all nodes idle and out of work.
    bool all_done = quiescent();
    for (std::size_t q = 0; all_done && q < ctl_.size(); ++q) {
      all_done = ctl_[q].script_pos == scripts_[q].size() &&
                 ctl_[q].random_remaining <= 0;
    }
    if (all_done) {
      result.completed = true;
      break;
    }

    if (progress) {
      stall = 0;
    } else if (++stall > stall_threshold) {
      if (net_.in_flight() > 0) {
        result.deadlocked = true;
        result.deadlock_report = net_.describe_blocked();
        CCSQL_INSTANT("sim.deadlock", "sim", ::ccsql::obs::arg("t", now_),
                      ::ccsql::obs::arg("in_flight", net_.in_flight()),
                      ::ccsql::obs::arg("report", result.deadlock_report));
      } else {
        result.stalled = true;
      }
      break;
    }
  }

  result.steps = now_;
  for (const Ctl& c : ctl_) result.transactions_done += c.done;
  if (!result.completed && !result.deadlocked && !result.stalled) {
    result.stalled = true;  // ran out of steps
  }
  if (result.completed) {
    auto quiescent = check_quiescent_state();
    errors_.insert(errors_.end(), quiescent.begin(), quiescent.end());
  }
  result.errors = errors_;
  const auto t1 = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  counters_.events_per_sec =
      result.seconds > 0
          ? static_cast<std::uint64_t>(
                static_cast<double>(counters_.events()) / result.seconds)
          : 0;
  result.counters = counters();

  // Fold the per-run counters into the global metrics registry so a traced
  // or --metrics invocation sees sim.* alongside the other layers.
  CCSQL_COUNT("sim.runs", 1);
  CCSQL_COUNT("sim.msgs_sent", result.counters.msgs_sent);
  CCSQL_COUNT("sim.msgs_recv", result.counters.msgs_recv);
  CCSQL_COUNT("sim.table_hits", result.counters.table_hits);
  CCSQL_COUNT("sim.table_misses", result.counters.table_misses);
  CCSQL_COUNT("sim.send_stalls", result.counters.send_stalls);
  CCSQL_COUNT("sim.ops_injected", result.counters.ops_injected);
  CCSQL_COUNT("sim.events", result.counters.events());
  CCSQL_COUNT("sim.cache_hits", result.counters.cache_hits);
  CCSQL_COUNT("sim.cycles", result.counters.cycles);
  CCSQL_COUNT("sim.run_us",
              static_cast<std::uint64_t>(result.seconds * 1e6));
  CCSQL_COUNT("sim.deadlocks", result.deadlocked ? 1 : 0);
  CCSQL_COUNT("sim.stalled_runs", result.stalled ? 1 : 0);
  CCSQL_OBSERVE("sim.steps", result.steps);

  run_span.arg("steps", result.steps)
      .arg("transactions_done", result.transactions_done)
      .arg("completed", result.completed)
      .arg("deadlocked", result.deadlocked)
      .arg("errors", result.errors.size());
  return result;
}

SimCounters Machine::counters() const {
  SimCounters out = counters_;
  for (std::size_t c = 0; c < vc_sent_.size(); ++c) {
    if (vc_sent_[c] == 0) continue;
    out.per_vc_sent[net_.vc_value(static_cast<Network::VcCode>(c))] +=
        vc_sent_[c];
  }
  return out;
}

std::vector<std::string> Machine::check_quiescent_state() const {
  const Sym& sy = sym();
  std::vector<std::string> out;
  for (Addr a = 0; a < config_.n_addrs; ++a) {
    const Cell& home = cell(home_of(a), a);
    const DirLine* l = (home.present & kDir) != 0 ? &home.dir : nullptr;
    std::uint64_t holders = 0;
    int owners = 0;
    for (QuadId q = 0; q < config_.n_quads; ++q) {
      const Value cst = cst_of(q, a);
      if (cst == sy.S) holders |= pv_bit(q);
      if (cst == sy.M || cst == sy.E) {
        holders |= pv_bit(q);
        ++owners;
      }
    }
    const Value dirst = l ? l->dirst : sy.I;
    if (l && l->bdirst != sy.I) {
      out.push_back("busy entry left at quiescence, addr " +
                    std::to_string(a));
      continue;
    }
    if (dirst == sy.I && holders != 0) {
      out.push_back("directory I but cached, addr " + std::to_string(a));
    }
    if (dirst == sy.MESI &&
        (owners != 1 || holders != l->pv || std::popcount(l->pv) != 1)) {
      out.push_back("directory MESI inconsistent, addr " +
                    std::to_string(a));
    }
    if (dirst == sy.SI) {
      // The presence vector may conservatively overcount (a sharer whose
      // writeback/flush was absorbed stays marked until re-invalidated)
      // but must never undercount, and no owner may exist.
      if (owners != 0 || (holders & ~l->pv) != 0) {
        out.push_back("directory SI inconsistent, addr " +
                      std::to_string(a));
      }
    }
  }
  return out;
}

// ---- Single-action interface (exhaustive exploration) -----------------------

std::string Machine::Action::to_string() const {
  switch (kind) {
    case Kind::kDeliver:
      return "deliver(" + std::to_string(queue.src) + "->" +
             std::to_string(queue.dst) + " " +
             (queue.vc.is_null() ? "direct" : std::string(queue.vc.str())) +
             ")";
    case Kind::kDrain:
      return "drain(node " + std::to_string(node) + ")";
    case Kind::kInject:
      return std::string(op.str()) + "(node " + std::to_string(node) +
             ", a" + std::to_string(addr) + ")";
  }
  return "?";
}

void Machine::possible_actions(std::vector<Action>& out) const {
  const Sym& sy = sym();
  out.clear();
  thread_local std::vector<Network::QueueRef> refs;
  for (QuadId q = 0; q < config_.n_quads; ++q) {
    net_.queues_to(q, refs);
    for (const auto& ref : refs) out.push_back(Action{.queue = ref});
  }
  for (QuadId q = 0; q < config_.n_quads; ++q) {
    const Ctl& n = ctl_[static_cast<std::size_t>(q)];
    if (!net_.outbox(q).empty()) {
      out.push_back(Action{.kind = Action::Kind::kDrain, .node = q});
    }
    if (n.random_remaining <= 0 || n.ncst != sy.idle || n.iocst != sy.idle) {
      continue;
    }
    for (Addr addr = 0; addr < config_.n_addrs; ++addr) {
      const Value cst = cst_of(q, addr);
      for (Value op : legal_ops_[cst == sy.I ? 0 : cst == sy.S ? 1 : 2]) {
        out.push_back(Action{
            .kind = Action::Kind::kInject, .node = q, .op = op, .addr = addr});
      }
    }
  }
}

bool Machine::apply_action(const Action& action) {
  switch (action.kind) {
    case Action::Kind::kDeliver: {
      const SimMessage* msg = net_.front(action.queue);
      if (msg == nullptr) return false;
      // Exploration abstracts memory timing: the interleavings themselves
      // cover all orderings, so the cooldown is ignored here.
      for (Ctl& c : ctl_) c.cooldown = 0;
      return deliver(action.queue.dst, action.queue, *msg);
    }
    case Action::Kind::kDrain:
      return drain_outbox(action.node);
    case Action::Kind::kInject: {
      Ctl& n = ctl(action.node);
      if (n.ncst != sym().idle || n.iocst != sym().idle ||
          n.random_remaining <= 0) {
        return false;
      }
      --n.random_remaining;
      return issue_op(action.node, action.op, action.addr);
    }
  }
  return false;
}

Machine::Snapshot Machine::snapshot() const {
  Snapshot snap;
  snap.words.resize(state_words());
  save(snap.words.data());
  return snap;
}

std::size_t Machine::save(std::uint64_t* out) const {
  static_assert(std::is_trivially_copyable_v<Ctl> &&
                std::is_trivially_copyable_v<Cell>);
  auto* p = reinterpret_cast<unsigned char*>(out);
  std::memcpy(p, ctl_.data(), ctl_.size() * sizeof(Ctl));
  p += ctl_.size() * sizeof(Ctl);
  std::memcpy(p, cells_.data(), cells_.size() * sizeof(Cell));
  p += cells_.size() * sizeof(Cell);
  std::memcpy(p, gv_.data(), gv_.size() * sizeof(std::int64_t));
  return local_words_ + net_.save(out + local_words_);
}

void Machine::restore(const std::uint64_t* words) {
  const auto* p = reinterpret_cast<const unsigned char*>(words);
  std::memcpy(ctl_.data(), p, ctl_.size() * sizeof(Ctl));
  p += ctl_.size() * sizeof(Ctl);
  std::memcpy(cells_.data(), p, cells_.size() * sizeof(Cell));
  p += cells_.size() * sizeof(Cell);
  std::memcpy(gv_.data(), p, gv_.size() * sizeof(std::int64_t));
  net_.load(words + local_words_);
  errors_.clear();
}

struct Machine::VersionRanks {
  std::vector<std::pair<Addr, std::int64_t>> seen;  // collection scratch
  std::vector<std::int64_t> vals;  // per address, sorted and distinct
  std::vector<std::uint32_t> start;  // address a: [start[a], start[a + 1])

  /// Dense rank of `v` among its address's versions; -1 for "none".
  [[nodiscard]] std::int64_t rank(Addr a, std::int64_t v) const {
    if (v < 0) return -1;
    const std::int64_t* b = vals.data() + start[static_cast<std::size_t>(a)];
    const std::int64_t* e =
        vals.data() + start[static_cast<std::size_t>(a) + 1];
    return std::lower_bound(b, e, v) - b;
  }
};

void Machine::rank_versions(VersionRanks& vr) const {
  // Data versions are normalised per address (order-preserving dense rank)
  // so the visited set is finite: states differing only by absolute version
  // numbers are control-equivalent.
  vr.seen.clear();
  const auto note = [&](Addr a, std::int64_t v) {
    if (v >= 0) vr.seen.emplace_back(a, v);
  };
  const auto note_ring = [&](const Network::Ring& ring) {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      note(ring[i].addr, ring[i].version);
    }
  };
  for (QuadId q = 0; q < config_.n_quads; ++q) {
    for (Addr a = 0; a < config_.n_addrs; ++a) {
      const Cell& c = cell(q, a);
      if ((c.present & kMem) != 0) note(a, c.memory);
      if ((c.present & kDir) != 0) {
        note(a, c.dir.held);
        note(a, c.dir.txver);
      }
      if ((c.present & kCver) != 0) note(a, c.cver);
    }
    note_ring(net_.outbox(q));
    for (QuadId dst = 0; dst < config_.n_quads; ++dst) {
      for (Network::VcCode code = 0; code < net_.vc_count(); ++code) {
        note_ring(net_.queue(q, dst, code));
      }
    }
  }
  for (Addr a = 0; a < config_.n_addrs; ++a) {
    note(a, gv_[static_cast<std::size_t>(a)]);
  }
  std::sort(vr.seen.begin(), vr.seen.end());
  vr.seen.erase(std::unique(vr.seen.begin(), vr.seen.end()), vr.seen.end());
  vr.vals.clear();
  vr.start.assign(gv_.size() + 1, 0);
  for (const auto& [a, v] : vr.seen) {
    ++vr.start[static_cast<std::size_t>(a) + 1];
    vr.vals.push_back(v);
  }
  for (std::size_t a = 0; a < gv_.size(); ++a) vr.start[a + 1] += vr.start[a];
}

std::string Machine::fingerprint() const {
  thread_local std::vector<std::uint64_t> words;
  words.clear();
  encode_state(words);
  std::string fp;
  for (const std::uint64_t w : words) {
    fp += std::to_string(static_cast<std::int64_t>(w));
    fp += ',';
  }
  return fp;
}

template <class Sink>
void Machine::encode(Sink& w, const Relabeling* relabel,
                     const VersionRanks& vr) const {
  const auto qm = [&](std::int64_t q) -> std::int64_t {
    return (relabel != nullptr && q >= 0)
               ? relabel->quad[static_cast<std::size_t>(q)]
               : q;
  };
  const auto am = [&](std::int64_t a) -> std::int64_t {
    return (relabel != nullptr && a >= 0)
               ? relabel->addr[static_cast<std::size_t>(a)]
               : a;
  };
  // Relabeling permutes indices: engines, entries and queues are emitted
  // in relabeled order by walking the inverse maps, so equivalent states
  // encode identically without sorting anything.
  const auto n_quads = static_cast<QuadId>(config_.n_quads);
  const auto n_addrs = static_cast<Addr>(config_.n_addrs);
  thread_local std::vector<QuadId> qinv;
  thread_local std::vector<Addr> ainv;
  qinv.resize(static_cast<std::size_t>(n_quads));
  ainv.resize(static_cast<std::size_t>(n_addrs));
  for (QuadId q = 0; q < n_quads; ++q) {
    qinv[static_cast<std::size_t>(qm(q))] = q;
  }
  for (Addr a = 0; a < n_addrs; ++a) {
    ainv[static_cast<std::size_t>(am(a))] = a;
  }
  // Entries of one quad present under `bit`, in relabeled address order.
  const auto entries = [&](QuadId q, std::uint8_t bit, auto&& emit) {
    std::int64_t count = 0;
    for (Addr a = 0; a < n_addrs; ++a) count += (cell(q, a).present & bit) != 0;
    w(count);
    for (Addr ap = 0; ap < n_addrs; ++ap) {
      const Addr a = ainv[static_cast<std::size_t>(ap)];
      const Cell& c = cell(q, a);
      if ((c.present & bit) == 0) continue;
      w(ap);
      emit(a, c);
    }
  };

  for (QuadId hp = 0; hp < n_quads; ++hp) {
    const QuadId h = qinv[static_cast<std::size_t>(hp)];
    entries(h, kDir, [&](Addr a, const Cell& c) {
      const DirLine& l = c.dir;
      w(l.dirst.id());
      w(std::popcount(l.pv));
      if ((l.pv & 1) != 0) w(-1);
      for (QuadId qp = 0; qp < n_quads; ++qp) {
        if ((l.pv & pv_bit(qinv[static_cast<std::size_t>(qp)])) != 0) w(qp);
      }
      w(l.bdirst.id());
      w(l.pending);
      w(qm(l.requester));
      w(vr.rank(a, l.held));
      w(vr.rank(a, l.txver));
    });
    entries(h, kMem,
            [&](Addr a, const Cell& c) { w(vr.rank(a, c.memory)); });
  }

  const auto msgs = [&](const Network::Ring& ring, bool by_dst) {
    w(static_cast<std::int64_t>(ring.size()));
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const SimMessage& m = ring[i];
      w(m.type.id());
      w(am(m.addr));
      w(qm(by_dst ? m.dst : m.src));
      w(vr.rank(m.addr, m.version));
    }
  };
  for (QuadId qp = 0; qp < n_quads; ++qp) {
    const QuadId q = qinv[static_cast<std::size_t>(qp)];
    entries(q, kCst, [&](Addr a, const Cell& c) {
      w(c.cst.id());
      w(vr.rank(a, cver_of(q, a)));
    });
    const Ctl& n = ctl_[static_cast<std::size_t>(q)];
    w(n.ncst.id());
    w(am(n.cur));
    w(n.iocst.id());
    w(am(n.io_cur));
    w(n.random_remaining);
    msgs(net_.outbox(q), true);
  }

  std::int64_t queues = 0;
  for (QuadId src = 0; src < n_quads; ++src) {
    for (QuadId dst = 0; dst < n_quads; ++dst) {
      for (Network::VcCode code = 0; code < net_.vc_count(); ++code) {
        queues += !net_.queue(src, dst, code).empty();
      }
    }
  }
  w(queues);
  for (QuadId sp = 0; sp < n_quads; ++sp) {
    for (QuadId dp = 0; dp < n_quads; ++dp) {
      for (Network::VcCode code = 0; code < net_.vc_count(); ++code) {
        const Network::Ring ring =
            net_.queue(qinv[static_cast<std::size_t>(sp)],
                       qinv[static_cast<std::size_t>(dp)], code);
        if (ring.empty()) continue;
        w(sp);
        w(dp);
        w(net_.vc_value(code).id());
        msgs(ring, false);
      }
    }
  }
}

namespace {

/// splitmix64 finalizer — fast, well-avalanched mixing for the state hash.
inline std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Two independently-seeded splitmix lanes over the encoding words give an
/// effective 128-bit key: at the few-million-state scales the explorer
/// reaches, the collision probability is ~n^2 / 2^128 — negligible.
struct HashSink {
  std::uint64_t h0 = 0x243F6A8885A308D3ull;
  std::uint64_t h1 = 0x13198A2E03707344ull;
  std::uint64_t n = 0;
  void operator()(std::int64_t x) noexcept {
    const auto wrd = static_cast<std::uint64_t>(x);
    h0 = splitmix64(h0 ^ wrd);
    h1 = splitmix64(h1 + (wrd * 0xA24BAED4963EE407ull));
    ++n;
  }
  [[nodiscard]] std::array<std::uint64_t, 2> value() const noexcept {
    return {splitmix64(h0 ^ n), splitmix64(h1 ^ n)};
  }
};

struct VectorSink {
  std::vector<std::uint64_t>& out;
  void operator()(std::int64_t x) { out.push_back(static_cast<std::uint64_t>(x)); }
};

}  // namespace

void Machine::encode_state(std::vector<std::uint64_t>& out,
                           const Relabeling* relabel) const {
  thread_local VersionRanks vr;
  rank_versions(vr);
  VectorSink sink{out};
  encode(sink, relabel, vr);
}

std::array<std::uint64_t, 2> Machine::canonical_hash(
    const std::vector<Relabeling>& group) const {
  // The ranking is indexed by the unrelabeled address, so one computation
  // serves the whole orbit.
  thread_local VersionRanks vr;
  rank_versions(vr);
  std::array<std::uint64_t, 2> best{~0ull, ~0ull};
  for (std::size_t i = 0; i < std::max<std::size_t>(group.size(), 1); ++i) {
    HashSink sink;
    encode(sink, group.empty() ? nullptr : &group[i], vr);
    best = std::min(best, sink.value());
  }
  return best;
}

bool Machine::quiescent() const {
  if (net_.in_flight() != 0) return false;
  const Value idle = sym().idle;
  for (QuadId q = 0; q < config_.n_quads; ++q) {
    const Ctl& n = ctl_[static_cast<std::size_t>(q)];
    if (n.ncst != idle || n.iocst != idle || !net_.outbox(q).empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace ccsql::sim
