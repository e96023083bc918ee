#include "protocol/asura/asura_internal.hpp"

namespace ccsql::asura::detail {

// The I/O controller IOC at the local node: translates device reads and
// writes into uncached rdio / wrio transactions to home and completes them
// back to the device.  Retried transactions are re-issued.
void add_io(ProtocolSpec& p) {
  auto& c = p.add_controller(kIo);

  c.add_input("inmsg", {"iord", "iowr", "iodata", "iocompl", "retry"});
  c.add_input("inmsgsrc", {"local"});
  c.add_input("inmsgdest", {"local"});
  c.add_input("iocst", {"idle", "w-rd", "w-wr"});

  c.add_output("outmsg", {"NULL", "rdio", "wrio"});
  c.add_output("outmsgsrc", {"NULL", "local"});
  c.add_output("outmsgdest", {"NULL", "home"});
  c.add_output("devmsg", {"NULL", "devdata", "devdone"});
  c.add_output("nxtiocst", {"NULL", "idle", "w-rd", "w-wr"});

  // Device ops originate locally; responses are delivered intra-quad by
  // the RAC (see rac.cpp / node.cpp).
  c.constrain("inmsgsrc", "inmsgsrc = local");
  c.constrain("inmsgdest", "inmsgdest = local");
  c.constrain("iocst",
              "inmsg in (iord, iowr) ? iocst = idle : "
              "(inmsg = iodata ? iocst = w-rd : "
              "(inmsg = iocompl ? iocst = w-wr : iocst in (w-rd, w-wr)))");

  c.constrain("outmsg",
              "inmsg = iord ? outmsg = rdio : "
              "(inmsg = iowr ? outmsg = wrio : "
              "(inmsg = retry ? "
              "(iocst = w-rd ? outmsg = rdio : outmsg = wrio) : "
              "outmsg = NULL))");
  c.constrain("outmsgsrc",
              "outmsg = NULL ? outmsgsrc = NULL : outmsgsrc = local");
  c.constrain("outmsgdest",
              "outmsg = NULL ? outmsgdest = NULL : outmsgdest = home");

  c.constrain("devmsg",
              "inmsg = iodata ? devmsg = devdata : "
              "(inmsg = iocompl ? devmsg = devdone : devmsg = NULL)");

  c.constrain("nxtiocst",
              "inmsg = iord ? nxtiocst = w-rd : "
              "(inmsg = iowr ? nxtiocst = w-wr : "
              "(inmsg = retry ? nxtiocst = NULL : nxtiocst = idle))");

  c.add_message_triple({"inmsg", "inmsgsrc", "inmsgdest", true});
  c.add_message_triple({"outmsg", "outmsgsrc", "outmsgdest", false});
  c.simulate({.key = {"inmsg", "iocst"}, .sets = {{"nxtiocst", "iocst"}}});
}

}  // namespace ccsql::asura::detail
