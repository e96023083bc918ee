#include "protocol/asura/asura_internal.hpp"

namespace ccsql::asura::detail {

// The home memory controller M: serves directory-issued memory reads and
// writes, and writebacks forwarded verbatim by D (Figure 4's R1 row:
// processing wb produces a compl response on the home->home response
// channel).  mupd is a posted update and produces no response.
void add_memory(ProtocolSpec& p) {
  auto& c = p.add_controller(kMemory);

  c.add_input("inmsg", {"mread", "mwrite", "mupd", "mrmw", "wb"});
  c.add_input("inmsgsrc", {"home"});
  c.add_input("inmsgdest", {"home"});
  c.add_input("inmsgres", {"reqq"});

  c.add_output("memop", {"rd", "wr"});
  c.add_output("outmsg", {"NULL", "data", "mdone", "compl"});
  c.add_output("outmsgsrc", {"NULL", "home"});
  c.add_output("outmsgdest", {"NULL", "home"});
  c.add_output("outmsgres", {"NULL", "respq"});
  c.add_output("mcmpl", {"done"});

  c.constrain("inmsgres", "inmsgres = reqq");
  c.constrain("memop", "inmsg = mread ? memop = rd : memop = wr");
  c.constrain("outmsg",
              "inmsg = mread ? outmsg = data : "
              "(inmsg in (mwrite, mrmw) ? outmsg = mdone : "
              "(inmsg = wb ? outmsg = compl : outmsg = NULL))");
  c.constrain("outmsgsrc",
              "outmsg = NULL ? outmsgsrc = NULL : outmsgsrc = home");
  c.constrain("outmsgdest",
              "outmsg = NULL ? outmsgdest = NULL : outmsgdest = home");
  c.constrain("outmsgres",
              "outmsg = NULL ? outmsgres = NULL : outmsgres = respq");
  c.constrain("mcmpl", "mcmpl = done");

  c.add_message_triple({"inmsg", "inmsgsrc", "inmsgdest", true});
  c.add_message_triple({"outmsg", "outmsgsrc", "outmsgdest", false});
  c.simulate({.key = {"inmsg"}});
}

}  // namespace ccsql::asura::detail
