// The section 4.1 / 4.2 deadlock-detection story, end to end:
//   1. V4 (four channels): several cycles, mostly involving the directory
//      and memory controllers at home.
//   2. V5 (VC4 added for directory->memory requests): the Figure 4
//      deadlock — a cycle between VC2 and VC4 — including the paper's
//      composed witness row R3 = (wb,home,home,VC4, mread,home,home,VC4).
//   3. V5fix (dedicated directory->memory path): no cycles.
//
// Build & run:  ./build/examples/deadlock_hunt
#include <iostream>

#include "checks/vcg.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/database.hpp"
#include "relational/format.hpp"

using namespace ccsql;

int main() {
  auto spec = asura::make_asura();
  const Database& db = spec->database();

  std::vector<ControllerTableRef> tables;
  for (const auto& c : spec->controllers()) {
    tables.push_back(ControllerTableRef::from_spec(*c, db.get(c->name())));
  }

  for (const char* name :
       {asura::kAssignV4, asura::kAssignV5, asura::kAssignV5Fix}) {
    const ChannelAssignment& v = spec->assignment(name);
    std::cout << "=== assignment " << name << " ===\n";
    std::cout << "V table (" << v.size() << " entries):\n"
              << to_ascii(v.to_table(), 12) << "\n";
    DeadlockAnalysis analysis(tables, v);
    std::cout << analysis.report() << "\n";
  }

  // The paper's R3 row, recovered by SQL over the protocol dependency
  // table of V5.
  DeadlockAnalysis v5(tables, spec->assignment(asura::kAssignV5));
  Database cat;
  cat.put("PDT", v5.protocol_dependency_table());
  std::cout << "=== the Figure 4 composed dependency (paper's row R3) ===\n"
            << "SQL: select * from PDT where m1 = wb and v1 = VC4 and "
               "m2 = mread and v2 = VC4\n"
            << to_ascii(cat.query(
                             "select * from PDT where m1 = wb and v1 = "
                             "\"VC4\" and m2 = mread and v2 = \"VC4\"")
                            .rows)
            << "\n";
  return 0;
}
