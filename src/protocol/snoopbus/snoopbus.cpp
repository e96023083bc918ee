#include "protocol/snoopbus/snoopbus.hpp"

namespace ccsql::snoopbus {
namespace {

// The snooping cache controller: MSI states driven by processor accesses
// and by the totally-ordered request bus.  Every cache sees every bus
// request (its own included — self-snoops confirm order); the owner of a
// modified line sources data, memory sources it otherwise.
void add_cache(ProtocolSpec& p) {
  auto& c = p.add_controller(kCache);

  c.add_input("inmsg", {"ld", "st", "evict", "GetS", "GetM", "PutM",
                        "DataMem", "DataOwner", "WbAck"});
  c.add_input("inmsgsrc", {"local", "remote", "home"});
  c.add_input("inmsgdest", {"local", "remote"});
  // own: the bus request being snooped is this cache's own (self-snoop).
  c.add_input("own", {"yes", "no", "na"});
  c.add_input("cst", {"M", "S", "I", "ISd", "IMd", "MIa"});

  c.add_output("busmsg", {"NULL", "GetS", "GetM", "PutM"});
  c.add_output("busmsgsrc", {"NULL", "local"});
  c.add_output("busmsgdest", {"NULL", "home"});
  c.add_output("datamsg", {"NULL", "DataOwner"});
  c.add_output("datamsgsrc", {"NULL", "remote"});
  c.add_output("datamsgdest", {"NULL", "home"});
  c.add_output("nxtcst", {"NULL", "M", "S", "I", "ISd", "IMd", "MIa"});

  // Processor ops are local; snooped bus requests arrive at the remote
  // role (the bus delivers them to everyone); data/acks come from home.
  c.constrain("inmsgsrc",
              "inmsg in (ld, st, evict) ? inmsgsrc = local : "
              "(inmsg in (GetS, GetM, PutM) ? inmsgsrc = remote : "
              "inmsgsrc = home)");
  c.constrain("inmsgdest",
              "inmsg in (ld, st, evict) ? inmsgdest = local : "
              "(inmsg in (GetS, GetM, PutM) ? inmsgdest = remote : "
              "inmsgdest = local)");
  // Self-snoop marking applies to bus requests only.
  c.constrain("own",
              "inmsg in (GetS, GetM, PutM) ? own in (yes, no) : own = na");

  // Input legality: processor ops only in stable states (one outstanding
  // request per line); data fills only in the transient -d states;
  // writeback acks only while awaiting one.
  c.constrain(
      "cst",
      "inmsg in (ld, st) ? cst in (M, S, I) : "
      "(inmsg = evict ? cst = M : "
      "(inmsg in (DataMem, DataOwner) ? cst in (ISd, IMd) : "
      "(inmsg = WbAck ? cst = MIa : "
      "(inmsg = PutM and own = yes ? cst = MIa : "
      "(inmsg = GetS and own = yes ? cst = ISd : "
      "(inmsg = GetM and own = yes ? cst in (IMd, M) : true))))))");

  // Bus requests issued by processor misses and evictions.
  c.constrain("busmsg",
              "inmsg = ld and cst = I ? busmsg = GetS : "
              "(inmsg = st and cst in (S, I) ? busmsg = GetM : "
              "(inmsg = evict ? busmsg = PutM : busmsg = NULL))");
  c.constrain("busmsgsrc",
              "busmsg = NULL ? busmsgsrc = NULL : busmsgsrc = local");
  c.constrain("busmsgdest",
              "busmsg = NULL ? busmsgdest = NULL : busmsgdest = home");

  // Owner data: a modified snooper answers GetS / GetM from another cache.
  c.constrain("datamsg",
              "inmsg in (GetS, GetM) and own = no and cst = M ? "
              "datamsg = DataOwner : datamsg = NULL");
  c.constrain("datamsgsrc",
              "datamsg = NULL ? datamsgsrc = NULL : datamsgsrc = remote");
  c.constrain("datamsgdest",
              "datamsg = NULL ? datamsgdest = NULL : datamsgdest = home");

  c.constrain(
      "nxtcst",
      "inmsg = ld and cst = I ? nxtcst = ISd : "
      "(inmsg = st and cst in (S, I) ? nxtcst = IMd : "
      "(inmsg = st and cst = M ? nxtcst = NULL : "
      "(inmsg = evict ? nxtcst = MIa : "
      "(inmsg in (DataMem, DataOwner) ? "
      "(cst = ISd ? nxtcst = S : nxtcst = M) : "
      "(inmsg = WbAck ? nxtcst = I : "
      "(inmsg = GetS and own = no and cst = M ? nxtcst = S : "
      "(inmsg = GetM and own = no and cst in (M, S) ? nxtcst = I : "
      "nxtcst = NULL)))))))");

  c.add_message_triple({"inmsg", "inmsgsrc", "inmsgdest", true});
  c.add_message_triple({"busmsg", "busmsgsrc", "busmsgdest", false});
  c.add_message_triple({"datamsg", "datamsgsrc", "datamsgdest", false});
}

// The memory controller: sources data for requests no owner answers, and
// acknowledges writebacks.  `owned` is the snoop result line (some cache
// asserted ownership on the bus).
void add_memory(ProtocolSpec& p) {
  auto& c = p.add_controller(kMemory);

  c.add_input("inmsg", {"GetS", "GetM", "PutM", "DataOwner"});
  c.add_input("inmsgsrc", {"remote", "home"});
  c.add_input("inmsgdest", {"home"});
  c.add_input("owned", {"yes", "no", "na"});

  c.add_output("outmsg", {"NULL", "DataMem", "WbAck"});
  c.add_output("outmsgsrc", {"NULL", "home"});
  c.add_output("outmsgdest", {"NULL", "local"});
  c.add_output("memop", {"NULL", "rd", "wr"});

  c.constrain("inmsgsrc",
              "inmsg = DataOwner ? inmsgsrc = home : inmsgsrc = remote");
  c.constrain("owned",
              "inmsg in (GetS, GetM) ? owned in (yes, no) : owned = na");

  c.constrain("outmsg",
              "inmsg in (GetS, GetM) and owned = no ? outmsg = DataMem : "
              "(inmsg = PutM ? outmsg = WbAck : outmsg = NULL)");
  c.constrain("outmsgsrc",
              "outmsg = NULL ? outmsgsrc = NULL : outmsgsrc = home");
  c.constrain("outmsgdest",
              "outmsg = NULL ? outmsgdest = NULL : outmsgdest = local");
  c.constrain("memop",
              "inmsg in (PutM, DataOwner) ? memop = wr : "
              "(owned = no ? memop = rd : memop = NULL)");

  c.add_message_triple({"inmsg", "inmsgsrc", "inmsgdest", true});
  c.add_message_triple({"outmsg", "outmsgsrc", "outmsgdest", false});
}

// The arbiter / order point: accepts a bus request from a requester and
// broadcasts it (role-level: one remote delivery represents the snoop
// broadcast, one home delivery reaches memory).
void add_arbiter(ProtocolSpec& p) {
  auto& c = p.add_controller(kArbiter);

  c.add_input("inmsg", {"GetS", "GetM", "PutM"});
  c.add_input("inmsgsrc", {"local"});
  c.add_input("inmsgdest", {"home"});

  c.add_output("snoopmsg", {"GetS", "GetM", "PutM"});
  c.add_output("snoopmsgsrc", {"home"});
  c.add_output("snoopmsgdest", {"remote"});
  c.add_output("memmsg", {"GetS", "GetM", "PutM"});
  c.add_output("memmsgsrc", {"remote"});
  c.add_output("memmsgdest", {"home"});

  c.constrain("snoopmsg", "snoopmsg = inmsg");
  c.constrain("memmsg", "memmsg = inmsg");

  c.add_message_triple({"inmsg", "inmsgsrc", "inmsgdest", true});
  c.add_message_triple({"snoopmsg", "snoopmsgsrc", "snoopmsgdest", false});
  c.add_message_triple({"memmsg", "memmsgsrc", "memmsgdest", false});
}

}  // namespace

std::unique_ptr<ProtocolSpec> make_snoopbus() {
  auto p = std::make_unique<ProtocolSpec>("SNOOPBUS");
  auto& m = p->messages();
  const auto req = MessageClass::kRequest;
  const auto rsp = MessageClass::kResponse;
  m.add("ld", req, "processor load");
  m.add("st", req, "processor store");
  m.add("evict", req, "processor replaces a modified line");
  m.add("GetS", req, "bus read-shared");
  m.add("GetM", req, "bus read-modified");
  m.add("PutM", req, "bus writeback of a modified line");
  m.add("DataMem", rsp, "data sourced by memory");
  m.add("DataOwner", rsp, "data sourced by the owning cache");
  m.add("WbAck", rsp, "writeback acknowledged by memory");

  add_cache(*p);
  add_memory(*p);
  add_arbiter(*p);

  // Invariants in the paper's style.
  p->add_invariant(
      {"sb-single-writer",
       "a store hit is only silent in M; stores elsewhere go to the bus",
       "[select inmsg, cst, busmsg from SC where inmsg = st and "
       "not cst = \"M\" and not busmsg = GetM] = empty"});
  p->add_invariant(
      {"sb-owner-answers",
       "a modified snooper sources data for every foreign request",
       "[select inmsg, cst, datamsg from SC where inmsg in (GetS, GetM) "
       "and own = no and cst = \"M\" and not datamsg = DataOwner] = empty"});
  p->add_invariant(
      {"sb-getm-invalidates",
       "a foreign GetM invalidates every valid copy",
       "[select inmsg, cst, nxtcst from SC where inmsg = GetM and "
       "own = no and cst in (\"M\", \"S\") and not nxtcst = \"I\"] = empty"});
  p->add_invariant(
      {"sb-memory-backstop",
       "memory sources data exactly when no owner does",
       "[select inmsg, owned, outmsg from MC where inmsg in (GetS, GetM) "
       "and owned = no and not outmsg = DataMem] = empty and "
       "[select inmsg, owned, outmsg from MC where inmsg in (GetS, GetM) "
       "and owned = yes and not outmsg = NULL] = empty"});
  p->add_invariant(
      {"sb-writeback-acked",
       "every writeback is written and acknowledged",
       "[select inmsg, outmsg, memop from MC where inmsg = PutM and "
       "(not outmsg = WbAck or not memop = wr)] = empty"});
  p->add_invariant(
      {"sb-self-snoop-transients",
       "a self-snooped request moves the line to the matching transient",
       "[select inmsg, own, cst, nxtcst from SC where inmsg = GetS and "
       "own = yes and not nxtcst = NULL] = empty"});
  p->add_invariant(
      {"sb-fills-complete",
       "a data response installs the requested stable state",
       "[select inmsg, cst, nxtcst from SC where inmsg in (DataMem, "
       "DataOwner) and cst = \"ISd\" and not nxtcst = \"S\"] = empty and "
       "[select inmsg, cst, nxtcst from SC where inmsg in (DataMem, "
       "DataOwner) and cst = \"IMd\" and not nxtcst = \"M\"] = empty"});
  p->add_invariant(
      {"sb-arbiter-broadcasts",
       "the arbiter forwards each request unchanged to snoopers and memory",
       "[select inmsg, snoopmsg, memmsg from ARB where "
       "not snoopmsg = inmsg or not memmsg = inmsg] = empty"});

  // Channel assignments: the broken one funnels data responses through the
  // same channel class as the snoop broadcast, so a snooper that must
  // source data depends on the channel its own pending fill occupies.
  {
    auto& v = p->add_assignment(kAssignShared);
    for (const char* msg : {"GetS", "GetM", "PutM"}) {
      v.assign(msg, "local", "home", "BUSREQ");
      v.assign(msg, "home", "remote", "BUSSNOOP");
      v.assign(msg, "remote", "home", "BUSSNOOP");
    }
    for (const char* msg : {"DataMem", "WbAck"}) {
      v.assign(msg, "home", "local", "BUSSNOOP");
    }
    v.assign("DataOwner", "remote", "home", "BUSSNOOP");
  }
  {
    auto& v = p->add_assignment(kAssignSplit);
    for (const char* msg : {"GetS", "GetM", "PutM"}) {
      v.assign(msg, "local", "home", "BUSREQ");
      v.assign(msg, "home", "remote", "BUSSNOOP");
      v.assign(msg, "remote", "home", "MEMREQ");
    }
    for (const char* msg : {"DataMem", "WbAck"}) {
      v.assign(msg, "home", "local", "DATA");
    }
    v.assign("DataOwner", "remote", "home", "DATA");
  }
  return p;
}

}  // namespace ccsql::snoopbus
