// Regenerates the paper's Figures 1-3 from the ASURA reconstruction:
//   Figure 1 - the protocol message vocabulary
//   Figure 2 - the read-exclusive transaction at the directory controller
//   Figure 3 - the directory-controller rows for that transaction
//
// Build & run:  ./build/examples/asura_readex
#include <iostream>

#include "protocol/asura/asura.hpp"
#include "relational/database.hpp"
#include "relational/format.hpp"

using namespace ccsql;

int main() {
  auto spec = asura::make_asura();
  const Database& db = spec->database();

  std::cout << "=== Figure 1: protocol messages (" << spec->messages().size()
            << " types) ===\n"
            << to_ascii(db.get("Messages")) << "\n";

  std::cout << "=== Figure 2: read exclusive at D, line SI at a remote "
               "node ===\n"
               "local --readex--> D(home): directory lookup finds SI\n"
               "  D --sinv--> remote (invalidate the shared copies)\n"
               "  D --mread--> memory (fetch the data)        [simultaneous]\n"
               "  D enters Busy-rx-sd (snoop + data responses pending)\n"
               "remote --idone--> D, memory --data--> D (either order)\n"
               "  D --compl,data--> local; ownership transfers (MESI)\n\n";

  std::cout << "=== Figure 3: D's rows for the readex transaction ===\n";
  const char* queries[] = {
      // The accepting row (Figure 2's fork) and the busy-state progression
      // of Figure 3: Busy-sd -data-> Busy-s, Busy-sd -idone-> Busy-d, and
      // the completing rows.
      "select inmsg, dirst, dirpv, bdirst, bdirpv, locmsg, remmsg, memmsg, "
      "nxtdirst, nxtdirpv, nxtbdirst, nxtbdirpv from D where "
      "inmsg = readex and bdirst = \"I\"",
      "select inmsg, bdirst, bdirpv, locmsg, memmsg, nxtbdirst, nxtbdirpv, "
      "datapath, cmpl from D where isresponse(inmsg) and "
      "bdirst in (\"Busy-rx-sd\", \"Busy-rx-s\", \"Busy-rx-si\", "
      "\"Busy-rx-d\", \"Busy-rx-g\")",
  };
  for (const char* q : queries) {
    std::cout << "SQL: " << q << "\n"
              << to_ascii(db.query(q).rows) << "\n";
  }

  const Table& d = db.get(asura::kDirectory);
  std::cout << "Directory controller table D: " << d.row_count()
            << " rows x " << d.column_count() << " columns, "
            << asura::busy_states().size() << " busy states\n";
  return 0;
}
