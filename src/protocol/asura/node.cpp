#include "protocol/asura/asura_internal.hpp"

namespace ccsql::asura::detail {

// The node controller NC at the local node: turns processor memory
// operations into network requests to home, and network responses into
// processor completions.  One outstanding memory transaction per line; the
// completion of read / readex consists of a data response and a compl
// response whose arrival order is not fixed, hence the -c (compl pending)
// and -d (data pending) sub-states.
//
// Two race states beyond the happy path:
//  * w-up-c: an upgrade whose shared copy was invalidated in flight is
//    converted to a read-exclusive by the directory, so a data response
//    can arrive while waiting for the upgrade completion.
//  * w-wb-x: a pending writeback absorbed by a snoop invalidation (the
//    dirty data was written through to home memory when the invalidation
//    hit); the bounced writeback's retry simply ends the transaction.
void add_node(ProtocolSpec& p) {
  auto& c = p.add_controller(kNode);

  c.add_input("inmsg", {"prd", "pwr", "pup", "pwb", "pfl", "pevict",
                        "patomic", "data", "compl", "retry", "nack",
                        "wbcancel"});
  c.add_input("inmsgsrc", {"local"});
  c.add_input("inmsgdest", {"local"});
  c.add_input("ncst", {"idle", "w-rd", "w-rd-c", "w-rd-d", "w-rx", "w-rx-c",
                       "w-rx-d", "w-up", "w-up-c", "w-up-d", "w-wb", "w-wb-x",
                       "w-fl", "w-ev", "w-at"});

  c.add_output("netmsg", {"NULL", "read", "readex", "upgr", "wb", "flush",
                          "evict", "atomic", "gdone"});
  c.add_output("netmsgsrc", {"NULL", "local"});
  c.add_output("netmsgdest", {"NULL", "home"});
  c.add_output("procmsg", {"NULL", "pdata", "pdone"});
  c.add_output("fillmsg", {"NULL", "pfill", "pfillx", "pinv"});
  c.add_output("nxtncst", {"NULL", "idle", "w-rd", "w-rd-c", "w-rd-d",
                           "w-rx", "w-rx-c", "w-rx-d", "w-up", "w-up-c",
                           "w-up-d", "w-wb", "w-wb-x", "w-fl", "w-ev",
                           "w-at"});
  c.add_output("nccmpl", {"NULL", "done", "cont"});

  // Processor ops originate locally; network responses are delivered
  // intra-quad by the RAC (the RAC is the controller that holds the
  // home->local virtual channel; see rac.cpp), so every NC input is local.
  c.constrain("inmsgsrc", "inmsgsrc = local");
  c.constrain("inmsgdest", "inmsgdest = local");

  // Input legality: processor ops only when idle; each response only in the
  // states that await it; a writeback cancel only with a writeback pending.
  c.constrain(
      "ncst",
      "inmsg in (prd, pwr, pup, pwb, pfl, pevict, patomic) ? "
      "ncst = idle : "
      "(inmsg = data ? ncst in (w-rd, w-rd-d, w-rx, w-rx-d, w-up, "
      "w-up-d) : "
      "(inmsg = compl ? ncst in (w-rd, w-rd-c, w-rx, w-rx-c, w-up, w-up-c, "
      "w-wb, w-wb-x, w-fl, w-ev, w-at) : "
      "(inmsg = wbcancel ? ncst = w-wb : "
      "(inmsg = nack ? ncst in (w-wb, w-wb-x, w-ev) : "
      "ncst in (w-rd, w-rx, w-up, w-wb, w-wb-x, w-fl, w-ev, w-at)))))");

  // Network message issued: fresh op; re-issue of the pending op on retry
  // (recovered from the wait state; an absorbed writeback is not
  // re-issued); or the grant acknowledgement when a copy-installing grant
  // has been fully consumed.
  c.constrain(
      "netmsg",
      "inmsg = prd ? netmsg = read : "
      "(inmsg = pwr ? netmsg = readex : "
      "(inmsg = pup ? netmsg = upgr : "
      "(inmsg = pwb ? netmsg = wb : "
      "(inmsg = pfl ? netmsg = flush : "
      "(inmsg = pevict ? netmsg = evict : "
      "(inmsg = patomic ? netmsg = atomic : "
      "(inmsg = retry ? ("
      "ncst = w-rd ? netmsg = read : "
      "(ncst = w-rx ? netmsg = readex : "
      "(ncst = w-up ? netmsg = upgr : "
      "(ncst = w-wb ? netmsg = wb : "
      "(ncst = w-fl ? netmsg = flush : "
      "(ncst = w-ev ? netmsg = evict : "
      "(ncst = w-at ? netmsg = atomic : netmsg = NULL))))))"
      ") : "
      "(inmsg = compl and ncst in (w-rd-c, w-rx-c, w-up-c) ? "
      "netmsg = gdone : "
      "(inmsg = data and ncst in (w-rd-d, w-rx-d, w-up-d) ? netmsg = gdone : "
      "netmsg = NULL)))))))))");
  c.constrain("netmsgsrc",
              "netmsg = NULL ? netmsgsrc = NULL : netmsgsrc = local");
  c.constrain("netmsgdest",
              "netmsg = NULL ? netmsgdest = NULL : netmsgdest = home");

  // Completion signalling to the processor: data responses deliver pdata;
  // final compl (or compl of data-less ops) delivers pdone; the retry of an
  // absorbed writeback completes the write-back as absorbed.
  c.constrain("procmsg",
              "inmsg = data ? procmsg = pdata : "
              "(inmsg = compl and ncst in (w-rd-c, w-rx-c, w-up-c, "
              "w-wb, w-wb-x, w-fl, w-ev, w-at) ? procmsg = pdone : "
              "(inmsg = retry and ncst = w-wb-x ? procmsg = pdone : "
              "(inmsg = nack ? procmsg = pdone : "
              "procmsg = NULL)))");

  // Cache maintenance: fills on data arrival (exclusive for read-exclusive
  // and for upgrades, which install M), invalidate on writeback / flush
  // issue.
  c.constrain("fillmsg",
              "inmsg = data and ncst in (w-rd, w-rd-d) ? fillmsg = pfill : "
              "(inmsg = data and ncst in (w-rx, w-rx-d, w-up, w-up-d) ? "
              "fillmsg = pfillx : "
              "(inmsg in (pwb, pfl, pevict) ? fillmsg = pinv : "
              "fillmsg = NULL))");

  c.constrain(
      "nxtncst",
      "inmsg = prd ? nxtncst = w-rd : "
      "(inmsg = pwr ? nxtncst = w-rx : "
      "(inmsg = pup ? nxtncst = w-up : "
      "(inmsg = pwb ? nxtncst = w-wb : "
      "(inmsg = pfl ? nxtncst = w-fl : "
      "(inmsg = pevict ? nxtncst = w-ev : "
      "(inmsg = patomic ? nxtncst = w-at : "
      "(inmsg = wbcancel ? nxtncst = w-wb-x : "
      "(inmsg = nack ? nxtncst = idle : "
      "(inmsg = retry ? "
      "(ncst = w-wb-x ? nxtncst = idle : nxtncst = NULL) : "
      "(inmsg = data ? "
      "(ncst = w-rd ? nxtncst = w-rd-c : "
      "(ncst = w-rx ? nxtncst = w-rx-c : "
      "(ncst = w-up ? nxtncst = w-up-c : nxtncst = idle))) : "
      "(ncst = w-rd ? nxtncst = w-rd-d : "
      "(ncst = w-rx ? nxtncst = w-rx-d : "
      "(ncst = w-up ? nxtncst = w-up-d : nxtncst = idle)))))))))))))");

  c.constrain("nccmpl",
              "procmsg = pdone or (inmsg = data and ncst in (w-rd-d, "
              "w-rx-d, w-up-d)) ? nccmpl = done : nccmpl = cont");

  c.add_message_triple({"inmsg", "inmsgsrc", "inmsgdest", true});
  c.add_message_triple({"netmsg", "netmsgsrc", "netmsgdest", false});
  c.simulate({.key = {"inmsg", "ncst"}, .sets = {{"nxtncst", "ncst"}}});
}

}  // namespace ccsql::asura::detail
