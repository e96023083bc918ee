#include "protocol/asura/asura_internal.hpp"

namespace ccsql::asura::detail {

// The cache controller CC: the MESI state machine proper.  A cache serves
// two roles: at the local node it answers processor accesses and performs
// fills/invalidations commanded by the node controller; at a remote node it
// executes snoop commands (cinv/cfetch/cflush) forwarded by the remote
// snoop engine and produces cache-level responses.
void add_cache(ProtocolSpec& p) {
  auto& c = p.add_controller(kCache);

  c.add_input("inmsg", {"prd", "pwr", "pfill", "pfillx", "pinv", "cinv",
                        "cfetch", "cflush"});
  c.add_input("inmsgsrc", {"local", "remote"});
  c.add_input("inmsgdest", {"local", "remote"});
  c.add_input("cst", {"M", "E", "S", "I"});

  c.add_output("outmsg", {"NULL", "hit", "miss", "cack", "cdata", "cwbdata"});
  c.add_output("outmsgsrc", {"NULL", "local", "remote"});
  c.add_output("outmsgdest", {"NULL", "local", "remote"});
  c.add_output("nxtcst", {"NULL", "M", "E", "S", "I"});

  // Role consistency: processor ops and NC commands are local-to-local;
  // snoop commands arrive at the remote role.
  c.constrain("inmsgsrc",
              "inmsg in (cinv, cfetch, cflush) ? inmsgsrc = remote : "
              "inmsgsrc = local");
  c.constrain("inmsgdest",
              "inmsg in (cinv, cfetch, cflush) ? inmsgdest = remote : "
              "inmsgdest = local");

  // Input legality per MESI state.  Fills only into an invalid frame.  A
  // cinv can find the line already invalid (the Figure 4 race: the remote
  // node wrote the line back before the invalidation arrived) or still
  // owned (readex at MESI invalidates the owner; the dirty data is written
  // through to home memory as part of the invalidation).  cfetch / cflush
  // tolerate I but never target a merely-shared copy.
  // pfillx is also the upgrade-completion fill: it installs M into an
  // invalid frame (read-exclusive) or a shared frame (upgrade).
  c.constrain("cst",
              "inmsg = pfill ? cst = I : "
              "(inmsg = pfillx ? cst in (I, S) : "
              "(inmsg = cinv ? cst in (I, S, M) : "
              "(inmsg in (cfetch, cflush) ? cst in (I, E, M) : true)))");

  c.constrain(
      "outmsg",
      "inmsg = prd ? (cst = I ? outmsg = miss : outmsg = hit) : "
      "(inmsg = pwr ? (cst in (I, S) ? outmsg = miss : outmsg = hit) : "
      "(inmsg = cinv ? outmsg = cack : "
      "(inmsg = cfetch ? outmsg = cdata : "
      "(inmsg = cflush ? outmsg = cwbdata : outmsg = NULL))))");
  c.constrain("outmsgsrc",
              "outmsg = NULL ? outmsgsrc = NULL : outmsgsrc = inmsgdest");
  c.constrain("outmsgdest",
              "outmsg = NULL ? outmsgdest = NULL : outmsgdest = inmsgsrc");

  c.constrain(
      "nxtcst",
      "inmsg = pfill ? nxtcst = S : "
      "(inmsg = pfillx ? nxtcst = M : "
      "(inmsg in (pinv, cinv, cflush) ? nxtcst = I : "
      "(inmsg = cfetch ? (cst = I ? nxtcst = NULL : nxtcst = S) : "
      "(inmsg = pwr and cst = E ? nxtcst = M : nxtcst = NULL))))");

  c.add_message_triple({"inmsg", "inmsgsrc", "inmsgdest", true});
  c.add_message_triple({"outmsg", "outmsgsrc", "outmsgdest", false});
  c.simulate({.key = {"inmsg", "cst"}, .sets = {{"nxtcst", "cst"}}});
}

}  // namespace ccsql::asura::detail
