// ASURA's simulator glue (DESIGN.md §15): what the controller tables do not
// say.  Machine::step does the rest: the lookup, the row's sends with their
// types and roles, the stall check and the consume.

#include <algorithm>
#include <bit>

#include "protocol/asura/asura.hpp"
#include "relational/error.hpp"
#include "sim/glue.hpp"
#include "sim/machine.hpp"
#include "sim/step.hpp"

namespace ccsql::sim {

class AsuraGlue final : public Glue {
 public:
  AsuraGlue(const ProtocolSpec& spec, CompiledTables& t);
  bool step(Machine& m, std::size_t c, QuadId q, const Network::QueueRef* ref,
            const SimMessage& msg) const override {
    return m.step_as(*this, c, q, ref, msg);
  }
  int consumer(const Machine& m, QuadId q,
               const SimMessage& msg) const override;
  bool issue(Machine& m, QuadId q, Value op, Addr addr) const override;

  // The hooks of the generic step (sim/glue.hpp), forced inline into it
  // below: as out-of-line calls they cost the simulator a fifth of its
  // events per second.
  bool guard(Machine& m, Step& s) const;
  bool plan(Machine& m, Step& s, std::span<const Send> sends) const;
  void apply(Machine& m, Step& s, std::span<const Update> sets,
             std::span<const Update> counts) const;

 private:
  enum Kind : std::uint8_t { kDir, kMem, kNode, kCache, kSnoop, kIo };
  static Value v(std::string_view s) { return Symbol::intern(s); }
  [[nodiscard]] Value enc_count(std::uint64_t n) const {
    return n == 0 ? zero_ : n == 1 ? one_ : gone_;
  }
  bool route(Machine& m, Step& s, SimMessage out) const;
  bool exchange(Machine& m, Step& s, Value cmd) const;
  void absorb_writeback(Machine& m, QuadId q, Addr a) const;

  const CompiledTables& t_;
  std::size_t d_, m_, nc_, cc_, rsn_, ioc_;
  std::vector<Kind> kind_;     // by controller index
  std::vector<bool> request_;  // by message type symbol id
  ControllerDispatch::Col locmsg_, datapath_, bdirop_, memop_, fillmsg_,
      nccmpl_, devmsg_, cc_out_, nxtrsnst_;
  Value local_ = v("local"), home_ = v("home"), remote_ = v("remote");
  Value I_ = v("I"), S_ = v("S"), M_ = v("M"), E_ = v("E");
  Value idle_ = v("idle"), w_wb_ = v("w-wb"), zero_ = v("zero");
  Value one_ = v("one"), gone_ = v("gone"), hit_ = v("hit");
  Value miss_ = v("miss"), stale_ = v("stale"), inc_ = v("inc");
  Value dec_ = v("dec"), repl_ = v("repl"), drepl_ = v("drepl");
  Value alloc_ = v("alloc"), free_ = v("free"), mem2loc_ = v("mem2loc");
  Value rem2loc_ = v("rem2loc"), wr_ = v("wr"), data_ = v("data");
  Value iodata_ = v("iodata"), retry_ = v("retry"), wb_ = v("wb");
  Value evict_ = v("evict"), wbcancel_ = v("wbcancel"), mwrite_ = v("mwrite");
  Value mupd_ = v("mupd"), mrmw_ = v("mrmw"), cdata_ = v("cdata");
  Value cwbdata_ = v("cwbdata"), done_ = v("done"), pfill_ = v("pfill");
  Value pfillx_ = v("pfillx"), prd_ = v("prd"), pwr_ = v("pwr");
  Value pup_ = v("pup"), iord_ = v("iord"), iowr_ = v("iowr");
};

AsuraGlue::AsuraGlue(const ProtocolSpec& spec, CompiledTables& t)
    : t_(t),
      d_(t.index_of(asura::kDirectory)),
      m_(t.index_of(asura::kMemory)),
      nc_(t.index_of(asura::kNode)),
      cc_(t.index_of(asura::kCache)),
      rsn_(t.index_of(asura::kRemoteSnoop)),
      ioc_(t.index_of(asura::kIo)),
      kind_(t.ctl.size()),
      locmsg_(t.ctl[d_].col("locmsg")),
      datapath_(t.ctl[d_].col("datapath")),
      bdirop_(t.ctl[d_].col("bdirop")),
      memop_(t.ctl[m_].col("memop")),
      fillmsg_(t.ctl[nc_].col("fillmsg")),
      nccmpl_(t.ctl[nc_].col("nccmpl")),
      devmsg_(t.ctl[ioc_].col("devmsg")),
      cc_out_(t.ctl[cc_].col("outmsg")),
      nxtrsnst_(t.ctl[rsn_].col("nxtrsnst")) {
  if (t.ctl.size() != 6) throw Error("sim: ASURA simulates six controllers");
  kind_[d_] = kDir;
  kind_[m_] = kMem;
  kind_[nc_] = kNode;
  kind_[cc_] = kCache;
  kind_[rsn_] = kSnoop;
  kind_[ioc_] = kIo;
  // The RAC hands each home -> local response to the node-level controller
  // taking it as local -> local input (consumer() settles the retry).
  t.forward(home_, local_, local_, local_);
  for (const MessageDef& def : spec.messages().all()) {
    const std::uint32_t id = v(def.name).id();
    if (id >= request_.size()) request_.resize(id + 1);
    request_[id] = def.cls == MessageClass::kRequest;
  }
}

[[gnu::always_inline]] inline bool AsuraGlue::guard(Machine& m,
                                                    Step& s) const {
  const Machine::Ctl& n = m.ctl(s.q);
  switch (kind_[s.ctl]) {
    case kDir: {
      const Machine::DirLine& l = m.line(s.q, s.in.addr);
      // While busy the directory entry lives in the busy directory: the
      // stable lookup reads invalid/empty (mutual-exclusion invariant).
      s.busy = l.bdirst != I_;
      s.holders = l.pv;
      const std::uint32_t id = s.in.type.id();
      s.requester =
          id < request_.size() && request_[id] ? s.in.src : l.requester;
      s.key[1] = s.busy ? I_ : l.dirst;
      // Writeback and eviction senders are compared against the recorded
      // holders: a sender outside the presence vector is stale.
      s.key[2] = s.key[1] == I_ ? miss_
                 : (s.in.type == wb_ || s.in.type == evict_) &&
                         (l.pv & Machine::pv_bit(s.in.src)) == 0
                     ? stale_
                     : hit_;
      s.key[3] = s.busy ? zero_ : enc_count(std::popcount(l.pv));
      s.key[4] = l.bdirst;
      s.key[5] = enc_count(static_cast<std::uint64_t>(l.pending));
      return true;
    }
    case kMem:
      return n.cooldown <= 0;  // modelling memory latency
    case kNode:
      s.key[1] = n.ncst;
      return true;
    case kCache:
      s.key[1] = m.cst_of(s.q, s.in.addr);
      return true;
    case kSnoop:
      s.key[1] = idle_;  // serviced atomically: idle between steps
      return true;
    case kIo:
      s.key[1] = n.iocst;
      return true;
  }
  return true;
}

[[gnu::always_inline]] inline bool AsuraGlue::plan(
    Machine& m, Step& s, std::span<const Send> sends) const {
  if (kind_[s.ctl] == kDir) {
    // Data routed to the requester travels as a `data` response ahead of
    // the completion, unless the completion itself carries it (iodata).
    const Value path = t_.ctl[d_].at(s.row, datapath_);
    const bool to_local = path == mem2loc_ || path == rem2loc_;
    s.version = !to_local           ? -1
                : s.in.version >= 0 ? s.in.version
                                    : m.line(s.q, s.in.addr).held;
    if (t_.ctl[d_].at(s.row, locmsg_) == iodata_) {
      // An I/O read is serialized here: it must return the latest
      // committed value (later writes may overtake the delivery).
      const std::int64_t want = m.gv_[static_cast<std::size_t>(s.in.addr)];
      if (s.version != want) {
        m.record_error("stale I/O read at addr " + std::to_string(s.in.addr) +
                       ": got v" + std::to_string(s.version) + " want v" +
                       std::to_string(want));
      }
    } else if (to_local) {
      s.out.push_back({SimMessage{data_, s.in.addr, s.q, s.requester, home_,
                                  local_, s.version}});
    }
  }
  for (const Send& send : sends) {
    if (!route(m, s, SimMessage{send.type, s.in.addr, s.q, s.q, send.src,
                                send.dst, -1})) {
      return false;
    }
  }
  return true;
}

[[gnu::always_inline]] inline bool AsuraGlue::route(Machine& m, Step& s,
                                                    SimMessage out) const {
  // The snoop exchange never enters the network: the snoop engine's
  // command to its cache (remote -> remote) is planned whole, and a cache's
  // answer returns to that exchange, or to the processor (hit/miss).
  if (kind_[s.ctl] == kCache) return true;
  if (kind_[s.ctl] == kSnoop && out.role_dst == remote_) {
    return exchange(m, s, out.type);
  }
  // Data versions: a snoop response carries the exchange's block, the
  // directory the request's (a device write's mwrite: the transaction's).
  // Memory and node sends are stamped by apply(), after their write/fill.
  if (kind_[s.ctl] == kSnoop || out.type == iodata_) {
    out.version = s.version;
  } else if (kind_[s.ctl] == kDir && (out.type == wb_ || out.type == mupd_)) {
    out.version = s.in.version;
  } else if (kind_[s.ctl] == kDir && out.type == mwrite_) {
    out.version =
        s.in.version >= 0 ? s.in.version : m.line(s.q, s.in.addr).txver;
  }
  if (out.role_dst == remote_) {
    // Snoops go to every presence-vector member, the requester included
    // when it is one: the coarse zero/one/gone encoding cannot exclude it.
    for (std::uint64_t bits = s.holders; bits != 0; bits &= bits - 1) {
      out.dst = std::countr_zero(bits) - 1;
      s.out.push_back({out});
    }
    return true;
  }
  out.dst = out.role_dst == local_ ? s.requester : m.home_of(out.addr);
  // The local node's requests leave through its outbox (the RAC buffer).
  s.out.push_back({out, out.role_src == local_});
  return true;
}

bool AsuraGlue::exchange(Machine& m, Step& s, Value cmd) const {
  // The directory keeps a line busy until the requester's gdone, so a
  // snoop finds settled cache state.  Consuming it needs a slot for the
  // home response (the VC1 -> VC2 dependency).
  const ControllerDispatch& cc = t_.ctl[cc_];
  const ControllerDispatch& rsn = t_.ctl[rsn_];
  const Addr a = s.in.addr;
  const Value cst = m.cst_of(s.q, a);
  const Value cc_key[] = {cmd, cst};
  const auto cc_row = m.lookup(cc, cc_key);
  if (!cc_row) {
    m.record_error("CC table has no row for (" + std::string(cmd.str()) +
                   ", " + std::string(cst.str()) + ")");
    return false;
  }
  const Value answer = cc.at(*cc_row, cc_out_);
  const Value rsn_key[] = {answer, rsn.at(s.row, nxtrsnst_)};
  const auto resp = m.lookup(rsn, rsn_key);
  if (!resp) {
    m.record_error("RSN table has no row for cache response " +
                   std::string(answer.str()));
    return false;
  }
  // A snoop can hit a line whose writeback is in flight (the node dropped
  // its copy when it issued pwb): the snoop absorbs the writeback.
  const Machine::Ctl& n = m.ctl(s.q);
  s.cmd = cmd;
  s.pending_wb = n.ncst == w_wb_ && n.cur == a;
  s.dirty = cst == M_ || cst == E_ || s.pending_wb;
  s.version = answer == cdata_ || (answer == cwbdata_ && s.dirty)
                  ? m.cver_of(s.q, a)
                  : -1;
  return plan(m, s, rsn.sends(*resp));
}

[[gnu::always_inline]] inline void AsuraGlue::apply(
    Machine& m, Step& s, std::span<const Update> sets,
    std::span<const Update> counts) const {
  const Addr a = s.in.addr;
  Machine::Ctl& n = m.ctl(s.q);
  std::int64_t& gv = m.gv_[static_cast<std::size_t>(a)];
  switch (kind_[s.ctl]) {
    case kDir: {
      Machine::DirLine& l = m.line(s.q, a);
      for (const Update& u : sets) (u.key == 1 ? l.dirst : l.bdirst) = u.value;
      for (const Update& u : counts) {
        if (u.key == 5) {  // bdirpv: the outstanding snoop acknowledgements
          if (u.value == repl_) l.pending = std::popcount(s.holders);
          if (u.value == dec_) l.pending = std::max(0, l.pending - 1);
        } else if (u.value == inc_) {  // dirpv: the presence vector
          l.pv |= Machine::pv_bit(s.requester);
        } else if (u.value == repl_) {
          l.pv = Machine::pv_bit(s.requester);
        } else if (u.value == drepl_) {
          l.pv = 0;
        }
        // An eviction hint's dec leaves the sharer marked: the presence
        // vector may overcount (check_quiescent_state allows it).
      }
      const Value op = t_.ctl[d_].at(s.row, bdirop_);
      if (op == alloc_) {
        l.requester = s.in.src;
        l.txver = s.in.version;
      }
      // Data held until invalidations finish (Figure 3: data at Busy-rx-sd).
      if (s.in.type == data_ && s.busy &&
          t_.ctl[d_].at(s.row, datapath_).is_null()) {
        l.held = s.in.version;
      }
      if (op == free_) {
        l.pending = 0;
        l.requester = -1;
        l.held = l.txver = -1;
      }
      return;
    }
    case kMem: {
      // Every consumed memory-controller message is a main-memory access.
      m.counters_.mem_cycles += CycleModel::kMemoryCycles;
      m.counters_.cycles += CycleModel::kMemoryCycles;
      if (t_.ctl[m_].at(s.row, memop_) == wr_) {
        if (s.in.version >= 0) {  // writeback, flush, posted update
          m.memory(s.q, a) = s.in.version;
        } else if (s.in.type == mwrite_ || s.in.type == mrmw_) {
          m.memory(s.q, a) = ++gv;  // device write or atomic: a fresh value
        }
      }
      for (Step::Out& o : s.out) {  // reads see this request's own write
        if (o.msg.type == data_) o.msg.version = m.memory(s.q, a);
      }
      n.cooldown = m.memory_latency_;
      return;
    }
    case kNode: {
      for (const Update& u : sets) n.ncst = u.value;
      const Value fill = t_.ctl[nc_].at(s.row, fillmsg_);
      // Reads must observe the latest committed write.
      if (fill == pfill_ && s.in.version != gv) {
        m.record_error("stale read fill at addr " + std::to_string(a) +
                       ": got v" + std::to_string(s.in.version) + " want v" +
                       std::to_string(gv));
      } else if (fill == pfillx_ && s.in.version >= 0 && s.in.version != gv) {
        m.record_error("stale exclusive fill at addr " + std::to_string(a));
      }
      if (!fill.is_null()) {
        m.fire_as(*this, cc_, s.q,
                  SimMessage{fill, a, s.q, s.q, local_, local_, -1});
      }
      if (fill == pfill_) m.cver(s.q, a) = s.in.version;
      if (fill == pfillx_) m.cver(s.q, a) = ++gv;  // the write commits
      n.cur = a;
      if (t_.ctl[nc_].at(s.row, nccmpl_) == done_) ++n.done;
      for (Step::Out& o : s.out) o.msg.version = m.cver_of(s.q, a);
      return;
    }
    case kCache:
      for (const Update& u : sets) {
        m.set_cst(s.q, a, u.value);
        m.check_swmr(a);
      }
      return;
    case kSnoop:  // its state lives only within the exchange
      if (s.version >= 0) {
        // The response carries the block out of this cache: a
        // cache-to-cache transfer at 4N + (P+1) cycles.
        const auto c2c = static_cast<std::uint64_t>(m.c2c_cost_);
        m.counters_.c2c_cycles += c2c;
        m.counters_.cycles += c2c;
      }
      m.fire_as(*this, cc_, s.q,
                SimMessage{s.cmd, a, s.q, s.q, remote_, remote_, -1});
      // An invalidated dirty owner writes its line through to home memory
      // before acknowledging (the Figure 4 race).
      if (s.dirty) m.memory(m.home_of(a), a) = m.cver(s.q, a);
      if (s.pending_wb) absorb_writeback(m, s.q, a);
      return;
    case kIo:
      for (const Update& u : sets) n.iocst = u.value;
      n.io_cur = a;
      // A device read's freshness was checked where D serialized it.
      if (!t_.ctl[ioc_].at(s.row, devmsg_).is_null()) ++n.done;
      return;
  }
}

void AsuraGlue::absorb_writeback(Machine& m, QuadId q, Addr a) const {
  // The node drops the transaction.  A writeback still queued locally is
  // purged and completes as absorbed; one already in the network bounces
  // off the busy line, and its retry ends the transaction.
  SimMessage internal{wbcancel_, a, q, q, local_, local_, -1};
  m.fire_as(*this, nc_, q, internal);
  const Network::Ring box = m.net_.outbox(q);
  for (std::size_t i = 0; i < box.size(); ++i) {
    if (box[i].type == wb_ && box[i].addr == a) {
      m.net_.erase_outbox(q, i);
      internal.type = retry_;
      m.fire_as(*this, nc_, q, internal);
      return;
    }
  }
}

int AsuraGlue::consumer(const Machine& m, QuadId q,
                        const SimMessage& msg) const {
  // A retry the RAC forwards goes to the I/O controller when that waits on
  // the line, else to the node controller (both take local -> local retry).
  if (msg.type != retry_ || msg.role_src != home_ || msg.role_dst != local_) {
    return -1;
  }
  const Machine::Ctl& n = m.ctl_[static_cast<std::size_t>(q)];
  const bool io = n.iocst != idle_ && n.io_cur == msg.addr;
  return static_cast<int>(io ? ioc_ : nc_);
}

bool AsuraGlue::issue(Machine& m, QuadId q, Value op, Addr addr) const {
  // Processor-side rules: hits complete locally (0 cycles), and a write to
  // a shared copy is an upgrade.
  Machine::Ctl& n = m.ctl(q);
  const Value cst = m.cst_of(q, addr);
  std::int64_t& gv = m.gv_[static_cast<std::size_t>(addr)];
  if (op == prd_ && cst != I_) {
    if (m.cver(q, addr) != gv) {
      m.record_error("stale local copy read at addr " + std::to_string(addr));
    }
  } else if (op == pwr_ && (cst == M_ || cst == E_)) {
    m.cver(q, addr) = ++gv;  // a silent write hit on the owned line
  } else {
    if (op == pwr_ && cst == S_) op = pup_;
    // Device operations go through the I/O controller.
    m.step_as(*this, op == iord_ || op == iowr_ ? ioc_ : nc_, q, nullptr,
              SimMessage{op, addr, q, q, local_, local_, -1});
    return true;
  }
  ++n.done;
  ++m.counters_.cache_hits;
  return false;
}

std::unique_ptr<const Glue> make_glue(const ProtocolSpec& spec,
                                      CompiledTables& tables) {
  if (spec.name() != "ASURA") {
    throw Error("sim: no simulator glue for protocol " + spec.name());
  }
  return std::make_unique<AsuraGlue>(spec, tables);
}

}  // namespace ccsql::sim
