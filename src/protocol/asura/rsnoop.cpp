#include "protocol/asura/asura_internal.hpp"

namespace ccsql::asura::detail {

// The remote snoop engine RSN at the remote quad's protocol engine: accepts
// snoop requests from the home directory, drives the local caches of its
// quad with cache-level commands, and returns the aggregate response to
// home.  Home serializes snoops per line, so at most one snoop is in flight
// here.
void add_remote_snoop(ProtocolSpec& p) {
  auto& c = p.add_controller(kRemoteSnoop);

  c.add_input("inmsg", {"sinv", "sfetch", "sflush", "cack", "cdata",
                        "cwbdata"});
  c.add_input("inmsgsrc", {"home", "remote"});
  c.add_input("inmsgdest", {"remote"});
  c.add_input("rsnst", {"idle", "w-inv", "w-fetch", "w-flush"});

  c.add_output("cmdmsg", {"NULL", "cinv", "cfetch", "cflush"});
  c.add_output("cmdmsgsrc", {"NULL", "remote"});
  c.add_output("cmdmsgdest", {"NULL", "remote"});
  c.add_output("homemsg", {"NULL", "idone", "rdata", "fdone"});
  c.add_output("homemsgsrc", {"NULL", "remote"});
  c.add_output("homemsgdest", {"NULL", "home"});
  c.add_output("nxtrsnst", {"idle", "w-inv", "w-fetch", "w-flush"});

  c.constrain("inmsgsrc",
              "inmsg in (sinv, sfetch, sflush) ? inmsgsrc = home : "
              "inmsgsrc = remote");
  c.constrain("inmsgdest", "inmsgdest = remote");
  c.constrain("rsnst",
              "inmsg in (sinv, sfetch, sflush) ? rsnst = idle : "
              "(inmsg = cack ? rsnst = w-inv : "
              "(inmsg = cdata ? rsnst = w-fetch : rsnst = w-flush))");

  c.constrain("cmdmsg",
              "inmsg = sinv ? cmdmsg = cinv : "
              "(inmsg = sfetch ? cmdmsg = cfetch : "
              "(inmsg = sflush ? cmdmsg = cflush : cmdmsg = NULL))");
  c.constrain("cmdmsgsrc",
              "cmdmsg = NULL ? cmdmsgsrc = NULL : cmdmsgsrc = remote");
  c.constrain("cmdmsgdest",
              "cmdmsg = NULL ? cmdmsgdest = NULL : cmdmsgdest = remote");

  c.constrain("homemsg",
              "inmsg = cack ? homemsg = idone : "
              "(inmsg = cdata ? homemsg = rdata : "
              "(inmsg = cwbdata ? homemsg = fdone : homemsg = NULL))");
  c.constrain("homemsgsrc",
              "homemsg = NULL ? homemsgsrc = NULL : homemsgsrc = remote");
  c.constrain("homemsgdest",
              "homemsg = NULL ? homemsgdest = NULL : homemsgdest = home");

  c.constrain("nxtrsnst",
              "inmsg = sinv ? nxtrsnst = w-inv : "
              "(inmsg = sfetch ? nxtrsnst = w-fetch : "
              "(inmsg = sflush ? nxtrsnst = w-flush : nxtrsnst = idle))");

  c.add_message_triple({"inmsg", "inmsgsrc", "inmsgdest", true});
  c.add_message_triple({"cmdmsg", "cmdmsgsrc", "cmdmsgdest", false});
  c.add_message_triple({"homemsg", "homemsgsrc", "homemsgdest", false});
  c.simulate({.key = {"inmsg", "rsnst"}, .sets = {{"nxtrsnst", "rsnst"}}});
}

}  // namespace ccsql::asura::detail
