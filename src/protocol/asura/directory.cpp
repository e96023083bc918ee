#include "protocol/asura/asura_internal.hpp"

namespace ccsql::asura::detail {
namespace {

std::vector<std::string> with(std::vector<std::string> base,
                              const std::vector<std::string>& more) {
  base.insert(base.end(), more.begin(), more.end());
  return base;
}

}  // namespace

// The directory controller D (paper, sections 2.1 and 3): 30 columns — 10
// inputs and 20 outputs.  The directory proper holds stable states
// {I, SI, MESI}; in-flight transactions live in the busy directory (bdirst,
// bdirpv), mirroring the paper's separate busy-directory structure and its
// mutual-exclusion invariant.
//
// Protocol structure beyond the paper's published fragment (all of it
// surfaced by driving the generated table in the simulator — the "errors
// found early" the methodology is about):
//  * Copy-installing grants (read / read-exclusive / upgrade) are
//    acknowledged: the line stays busy in a Busy-*-g state until the
//    requester's gdone arrives, so no snoop can overtake a grant in
//    flight.  The directory write happens when the gdone is processed,
//    preserving the directory / busy-directory mutual exclusion.
//  * An upgrade that finds the line MESI or I lost an invalidation race
//    and is converted into a read-exclusive.
//  * A writeback that finds the line not owned is stale (it was absorbed
//    by a snoop while in flight) and is nacked.
//
// Output conventions:
//  * One message port per destination: locmsg (to the requesting local
//    node), remmsg (snoops to remote), memmsg (to home memory), each with
//    source/destination/resource columns, as in the paper.
//  * Data movement is recorded in the `datapath` column (mem2loc etc.);
//    the completion locmsg carries the control part.  NULL = no-op.
void add_directory(ProtocolSpec& p) {
  auto& c = p.add_controller(kDirectory);
  const std::vector<std::string>& busy = busy_states();

  // ---- Inputs --------------------------------------------------------------
  c.add_input("inmsg",
              {"read", "readex", "upgr", "wb", "flush", "rdio", "wrio",
               "intr", "evict", "atomic", "idone", "rdata", "fdone", "data",
               "mdone", "compl", "gdone"});
  c.add_input("inmsgsrc", {"local", "remote", "home"});
  c.add_input("inmsgdest", {"home"});
  c.add_input("inmsgres", {"reqq", "respq"});
  c.add_input("dirlookup", {"hit", "miss", "stale"});
  c.add_input("dirst", {"I", "SI", "MESI"});
  c.add_input("dirpv", {"zero", "one", "gone"});
  c.add_input("bdirlookup", {"hit", "miss"});
  c.add_input("bdirst", with({"I"}, busy));
  c.add_input("bdirpv", {"zero", "one", "gone"});

  // ---- Outputs -------------------------------------------------------------
  c.add_output("locmsg", {"NULL", "compl", "retry", "nack", "iodata",
                          "iocompl", "intack"});
  c.add_output("locmsgsrc", {"NULL", "home"});
  c.add_output("locmsgdest", {"NULL", "local"});
  c.add_output("locmsgres", {"NULL", "respq"});
  c.add_output("remmsg", {"NULL", "sinv", "sfetch", "sflush"});
  c.add_output("remmsgsrc", {"NULL", "home"});
  c.add_output("remmsgdest", {"NULL", "remote"});
  c.add_output("remmsgres", {"NULL", "reqq"});
  c.add_output("memmsg",
               {"NULL", "mread", "mwrite", "mupd", "mrmw", "wb"});
  c.add_output("memmsgsrc", {"NULL", "home"});
  c.add_output("memmsgdest", {"NULL", "home"});
  c.add_output("memmsgres", {"NULL", "reqq"});
  c.add_output("nxtdirst", {"NULL", "I", "SI", "MESI"});
  c.add_output("nxtdirpv", {"NULL", "inc", "dec", "repl", "drepl"});
  c.add_output("nxtbdirst", with({"NULL", "I"}, busy));
  c.add_output("nxtbdirpv", {"NULL", "inc", "dec", "repl", "drepl"});
  c.add_output("bdirop", {"NULL", "alloc", "free"});
  c.add_output("dirupd", {"NULL", "upd"});
  c.add_output("datapath",
               {"NULL", "mem2loc", "rem2loc", "rem2mem", "loc2mem"});
  c.add_output("cmpl", {"NULL", "done", "cont"});

  // ---- Input-legality constraints -------------------------------------------

  // Requests and the grant acknowledgement come from the local node;
  // invalidation/flush/owner-data responses from remote; memory responses
  // from home.
  c.constrain("inmsgsrc",
              "inmsg in (read, readex, upgr, wb, flush, rdio, wrio, intr, "
              "evict, atomic, gdone) ? inmsgsrc = local : "
              "(inmsg in (idone, rdata, fdone) ? inmsgsrc = remote : "
              "inmsgsrc = home)");
  c.constrain("inmsgdest", "inmsgdest = home");
  c.constrain("inmsgres",
              "isrequest(inmsg) ? inmsgres = reqq : inmsgres = respq");

  // Directory lookup result: miss for an invalid line, otherwise hit —
  // except that for writebacks and eviction hints the lookup also compares
  // the requester against the presence vector, reporting `stale` when the
  // sender is not a recorded holder (the late-writeback race: the copy was
  // absorbed and ownership has moved on).
  c.constrain("dirlookup",
              "dirst = I ? dirlookup = miss : "
              "(inmsg in (wb, evict) and bdirst = I ? "
              "dirlookup in (hit, stale) : dirlookup = hit)");

  // Directory state / presence vector consistency (the paper's first
  // invariant, enforced already at generation time for legal inputs).
  c.constrain("dirpv",
              "dirst = I ? dirpv = zero : "
              "(dirst = MESI ? dirpv = one : dirpv in (one, gone))");

  // Legal (request, stable state) combinations; while a line is busy its
  // directory entry has been moved to the busy directory (mutual
  // exclusion), so dirst must read I.  An upgrade may find the line SI
  // (normal) or MESI / I (its copy was invalidated in flight: the upgrade
  // converts to a read-exclusive); a writeback may find the line SI or I
  // (stale: it was absorbed by a snoop and is nacked).
  // A flush may find the line already invalid (its holder's copy was
  // invalidated while the flush was in flight): it completes trivially.
  c.constrain("dirst",
              "bdirst = I ? ("
              "inmsg = intr ? dirst = I : true"
              ") : dirst = I");

  // A response is only legal in a busy state that awaits it.
  c.constrain(
      "bdirst",
      "inmsg = data ? "
      "bdirst in (Busy-rd-d, Busy-rx-d, Busy-rx-sd, Busy-ior-d, "
      "Busy-ior-e) : "
      "(inmsg = idone ? "
      "bdirst in (Busy-rx-sd, Busy-rx-s, Busy-rx-si, Busy-fl-s, "
      "Busy-iow-s, Busy-iow-si, Busy-at-s, Busy-at-si) : "
      "(inmsg = rdata ? bdirst in (Busy-rd-r, Busy-ior-r) : "
      "(inmsg = fdone ? bdirst = Busy-fl-f : "
      "(inmsg = mdone ? bdirst in (Busy-fl-m, Busy-iow-m, Busy-at-m) : "
      "(inmsg = compl ? bdirst = Busy-wb-m : "
      "(inmsg = gdone ? "
      "bdirst in (Busy-rd-g, Busy-rx-g) : true))))))");
  c.constrain("bdirlookup",
              "bdirst = I ? bdirlookup = miss : bdirlookup = hit");

  // The busy presence vector counts outstanding snoop acknowledgements; an
  // owner invalidation (Busy-rx-si) always awaits exactly one idone.
  c.constrain("bdirpv",
              "bdirst in (Busy-rx-si, Busy-iow-si, Busy-at-si) ? "
              "bdirpv = one : "
              "(bdirst in (Busy-rx-sd, Busy-rx-s, Busy-fl-s, Busy-iow-s, "
              "Busy-at-s) ? bdirpv in (one, gone) : bdirpv = zero)");

  // ---- Output constraints ----------------------------------------------------

  // Response to the local node.  Requests against a busy line are retried
  // (this is what serializes requests per address, section 4.3); stale
  // writebacks are nacked.
  c.constrain(
      "locmsg",
      "isrequest(inmsg) and bdirst != I ? locmsg = retry : "
      "(inmsg = wb and (dirst != MESI or dirlookup = stale) ? "
      "locmsg = nack : "
      "(inmsg = evict and (dirst != SI or dirlookup = stale) ? "
      "locmsg = nack : "
      "(inmsg = evict ? locmsg = compl : "
      "(inmsg = intr ? locmsg = intack : "
      "(inmsg = flush and dirst = I ? locmsg = compl : "
      "(inmsg = data and bdirst in (Busy-rd-d, Busy-rx-d) ? locmsg = compl : "
      "(inmsg = data and bdirst in (Busy-ior-d, Busy-ior-e) ? "
      "locmsg = iodata : "
      "(inmsg = rdata ? "
      "(bdirst = Busy-rd-r ? locmsg = compl : locmsg = iodata) : "
      "(inmsg = idone and bdirpv = one and "
      "bdirst in (Busy-rx-s, Busy-fl-s) ? locmsg = compl : "
      "(inmsg = compl ? locmsg = compl : "
      "(inmsg = mdone and bdirst = Busy-iow-m ? locmsg = iocompl : "
      "(inmsg = mdone and bdirst in (Busy-fl-m, Busy-at-m) ? "
      "locmsg = compl : "
      "locmsg = NULL))))))))))))");
  c.constrain("locmsgsrc",
              "locmsg = NULL ? locmsgsrc = NULL : locmsgsrc = home");
  c.constrain("locmsgdest",
              "locmsg = NULL ? locmsgdest = NULL : locmsgdest = local");
  c.constrain("locmsgres",
              "locmsg = NULL ? locmsgres = NULL : locmsgres = respq");

  // Snoop requests to remote nodes, issued when a fresh request finds the
  // line shared or owned elsewhere (Figure 2: readex at SI sends sinv).
  c.constrain(
      "remmsg",
      "bdirst = I ? ("
      "inmsg in (read, rdio) and dirst = MESI ? remmsg = sfetch : "
      "(inmsg in (readex, upgr, wrio, atomic) and "
      "dirst in (SI, MESI) ? remmsg = sinv : "
      "(inmsg = flush and dirst = SI ? remmsg = sinv : "
      "(inmsg = flush and dirst = MESI ? remmsg = sflush : "
      "remmsg = NULL)))"
      ") : remmsg = NULL");
  c.constrain("remmsgsrc",
              "remmsg = NULL ? remmsgsrc = NULL : remmsgsrc = home");
  c.constrain("remmsgdest",
              "remmsg = NULL ? remmsgdest = NULL : remmsgdest = remote");
  c.constrain("remmsgres",
              "remmsg = NULL ? remmsgres = NULL : remmsgres = reqq");

  // Requests to the home memory controller (Figure 2: readex at SI sends
  // mread concurrently with the snoop; Figure 4: wb is forwarded as-is and
  // the mread of an owner invalidation is issued when the idone is
  // processed).
  c.constrain(
      "memmsg",
      "bdirst = I ? ("
      "inmsg in (read, readex, upgr) and dirst in (I, SI) ? memmsg = mread : "
      "(inmsg = rdio and dirst in (I, SI) ? memmsg = mread : "
      "(inmsg = wb and dirst = MESI and dirlookup = hit ? "
      "memmsg = wb : "
      "(inmsg = wrio and dirst = I ? memmsg = mwrite : "
      "(inmsg = atomic and dirst = I ? memmsg = mrmw : memmsg = NULL))))"
      ") : ("
      "inmsg = idone and bdirst = Busy-rx-si ? memmsg = mread : "
      "(inmsg = idone and bdirpv = one and "
      "bdirst in (Busy-iow-s, Busy-iow-si) ? memmsg = mwrite : "
      "(inmsg = idone and bdirpv = one and "
      "bdirst in (Busy-at-s, Busy-at-si) ? memmsg = mrmw : "
      "(inmsg = rdata ? memmsg = mupd : "
      "(inmsg = fdone ? memmsg = mwrite : memmsg = NULL)))))");
  c.constrain("memmsgsrc",
              "memmsg = NULL ? memmsgsrc = NULL : memmsgsrc = home");
  c.constrain("memmsgdest",
              "memmsg = NULL ? memmsgdest = NULL : memmsgdest = home");
  c.constrain("memmsgres",
              "memmsg = NULL ? memmsgres = NULL : memmsgres = reqq");

  // Next stable directory state.  Busy-allocating requests move the entry
  // into the busy directory (stable state reads I until the transaction is
  // over); the grant acknowledgement installs the final state.
  c.constrain(
      "nxtdirst",
      "bdirst != I and isrequest(inmsg) ? nxtdirst = NULL : "
      "(inmsg = wb and (dirst != MESI or dirlookup = stale) ? "
      "nxtdirst = NULL : "
      "(inmsg = intr ? nxtdirst = NULL : "
      "(inmsg = evict ? (dirst = SI and dirlookup = hit and "
      "dirpv = one ? nxtdirst = I : nxtdirst = NULL) : "
      "(isrequest(inmsg) ? (dirst = I ? nxtdirst = NULL : nxtdirst = I) : "
      "(inmsg = gdone and bdirst = Busy-rd-g ? nxtdirst = SI : "
      "(inmsg = gdone ? nxtdirst = MESI : "
      "(inmsg = data and bdirst = Busy-ior-e ? nxtdirst = SI : "
      "(inmsg = rdata and bdirst = Busy-ior-r ? nxtdirst = SI : "
      "nxtdirst = NULL))))))))");

  // Presence-vector operation applied when the directory entry is written
  // (paper: inc / dec / repl / drepl).
  c.constrain(
      "nxtdirpv",
      "inmsg = evict and dirst = SI and dirlookup = hit ? "
      "(dirpv = one ? nxtdirpv = drepl : nxtdirpv = dec) : "
      "(inmsg = gdone and bdirst = Busy-rd-g ? nxtdirpv = inc : "
      "(inmsg = gdone ? nxtdirpv = repl : "
      "(inmsg = compl and bdirst = Busy-wb-m ? nxtdirpv = drepl : "
      "(inmsg = idone and bdirpv = one and bdirst = Busy-fl-s ? "
      "nxtdirpv = drepl : "
      "(inmsg = mdone and bdirst in (Busy-fl-m, Busy-iow-m, Busy-at-m) ? "
      "nxtdirpv = drepl : "
      "nxtdirpv = NULL)))))");

  // Busy-directory state machine (Figure 3: Busy-sd -data-> Busy-s,
  // Busy-sd -idone(last)-> Busy-d; here with the transaction prefix rx,
  // plus the grant-acknowledgement tail).
  c.constrain(
      "nxtbdirst",
      "bdirst = I ? ("
      "inmsg = read ? "
      "(dirst = MESI ? nxtbdirst = Busy-rd-r : nxtbdirst = Busy-rd-d) : "
      "(inmsg = readex ? (dirst = I ? nxtbdirst = Busy-rx-d : "
      "(dirst = SI ? nxtbdirst = Busy-rx-sd : nxtbdirst = Busy-rx-si)) : "
      "(inmsg = upgr ? (dirst = I ? nxtbdirst = Busy-rx-d : "
      "(dirst = MESI ? nxtbdirst = Busy-rx-si : nxtbdirst = Busy-rx-sd)) : "
      "(inmsg = wb ? "
      "(dirst = MESI and dirlookup = hit ? nxtbdirst = Busy-wb-m : "
      "nxtbdirst = NULL) : "
      "(inmsg = flush ? (dirst = SI ? nxtbdirst = Busy-fl-s : "
      "(dirst = MESI ? nxtbdirst = Busy-fl-f : nxtbdirst = NULL)) : "
      "(inmsg = rdio ? (dirst = I ? nxtbdirst = Busy-ior-d : "
      "(dirst = SI ? nxtbdirst = Busy-ior-e : nxtbdirst = Busy-ior-r)) : "
      "(inmsg = wrio ? (dirst = I ? nxtbdirst = Busy-iow-m : "
      "(dirst = SI ? nxtbdirst = Busy-iow-s : nxtbdirst = Busy-iow-si)) : "
      "(inmsg = atomic ? (dirst = I ? nxtbdirst = Busy-at-m : "
      "(dirst = SI ? nxtbdirst = Busy-at-s : nxtbdirst = Busy-at-si)) : "
      "nxtbdirst = NULL)))))))"
      ") : ("
      "isrequest(inmsg) ? nxtbdirst = NULL : "
      "(inmsg = gdone ? nxtbdirst = I : "
      "(inmsg = data and bdirst = Busy-rx-sd ? nxtbdirst = Busy-rx-s : "
      "(inmsg = data and bdirst = Busy-rd-d ? nxtbdirst = Busy-rd-g : "
      "(inmsg = data and bdirst = Busy-rx-d ? nxtbdirst = Busy-rx-g : "
      "(inmsg = rdata ? (bdirst = Busy-rd-r ? nxtbdirst = Busy-rd-g : "
      "nxtbdirst = I) : "
      "(inmsg = idone and bdirpv = gone ? nxtbdirst = NULL : "
      "(inmsg = idone and bdirst in (Busy-rx-sd, Busy-rx-si) ? "
      "nxtbdirst = Busy-rx-d : "
      "(inmsg = idone and bdirst = Busy-rx-s ? nxtbdirst = Busy-rx-g : "
      "(inmsg = idone and bdirst in (Busy-iow-s, Busy-iow-si) ? "
      "nxtbdirst = Busy-iow-m : "
      "(inmsg = idone and bdirst in (Busy-at-s, Busy-at-si) ? "
      "nxtbdirst = Busy-at-m : "
      "(inmsg = fdone ? nxtbdirst = Busy-fl-m : nxtbdirst = I)))))))))))"
      ")");

  // Busy presence vector: set to the sharer count when invalidations are
  // issued; decremented per idone.
  c.constrain("nxtbdirpv",
              "inmsg = idone ? nxtbdirpv = dec : "
              "(remmsg = sinv ? nxtbdirpv = repl : nxtbdirpv = NULL)");

  // Busy-directory entry management.
  c.constrain("bdirop",
              "bdirst = I and nxtbdirst != NULL and nxtbdirst != I ? "
              "bdirop = alloc : "
              "(bdirst != I and nxtbdirst = I ? bdirop = free : "
              "bdirop = NULL)");

  // Directory write needed whenever stable state or presence vector change.
  c.constrain("dirupd",
              "nxtdirst != NULL or nxtdirpv != NULL ? dirupd = upd : "
              "dirupd = NULL");

  // Data routing.
  c.constrain(
      "datapath",
      "inmsg = data and bdirst in (Busy-rd-d, Busy-rx-d) ? "
      "datapath = mem2loc : "
      "(inmsg = data and bdirst in (Busy-ior-d, Busy-ior-e) ? "
      "datapath = mem2loc : "
      "(inmsg = rdata ? datapath = rem2loc : "
      "(inmsg = idone and bdirpv = one and bdirst = Busy-rx-s ? "
      "datapath = mem2loc : "
      "(inmsg = fdone ? datapath = rem2mem : "
      "(inmsg = wb and bdirst = I and dirst = MESI and "
      "dirlookup = hit ? datapath = loc2mem : "
      "(inmsg = wrio and bdirst = I ? datapath = loc2mem : "
      "datapath = NULL))))))");

  // Transaction progress marker: done (transaction over), cont (it
  // continues), NULL (retried / nacked).
  c.constrain("cmpl",
              "locmsg in (retry, nack) ? cmpl = NULL : "
              "(bdirop = free or (bdirst = I and bdirop = NULL and "
              "locmsg in (compl, intack, iodata, iocompl)) ? cmpl = done : "
              "cmpl = cont)");

  // ---- Message ports ---------------------------------------------------------
  c.add_message_triple({"inmsg", "inmsgsrc", "inmsgdest", /*is_input=*/true});
  c.add_message_triple({"locmsg", "locmsgsrc", "locmsgdest", false});
  c.add_message_triple({"remmsg", "remmsgsrc", "remmsgdest", false});
  c.add_message_triple({"memmsg", "memmsgsrc", "memmsgdest", false});
  c.simulate({.key = {"inmsg", "dirst", "dirlookup", "dirpv", "bdirst",
                      "bdirpv"},
              .sets = {{"nxtdirst", "dirst"}, {"nxtbdirst", "bdirst"}},
              .counts = {{"nxtdirpv", "dirpv"}, {"nxtbdirpv", "bdirpv"}}});
}

}  // namespace ccsql::asura::detail
