// Quickstart: the whole methodology on a deliberately tiny protocol.
//
// A single "lock controller" grants/queues lock requests.  We define its
// columns and domains, attach the paper-style column constraints, let the
// solver generate the controller table, query it with SQL, check an
// invariant, and run the deadlock analysis for two channel assignments.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <iostream>

#include "ccsql.hpp"

using namespace ccsql;

int main() {
  ProtocolSpec p("quickstart");

  // 1. The message vocabulary.
  p.messages().add("acquire", MessageClass::kRequest, "take the lock");
  p.messages().add("release", MessageClass::kRequest, "drop the lock");
  p.messages().add("grant", MessageClass::kResponse, "lock granted");
  p.messages().add("queued", MessageClass::kResponse, "wait for the lock");

  // 2. The controller: columns, domains (column tables), constraints.
  ControllerSpec& c = p.add_controller("LOCK");
  c.add_input("inmsg", {"acquire", "release"});
  c.add_input("inmsgsrc", {"local"});
  c.add_input("inmsgdest", {"home"});
  c.add_input("lockst", {"free", "held"});
  c.add_output("outmsg", {"NULL", "grant", "queued"});
  c.add_output("outmsgsrc", {"NULL", "home"});
  c.add_output("outmsgdest", {"NULL", "local"});
  c.add_output("nxtlockst", {"NULL", "free", "held"});

  c.constrain("inmsgsrc", "inmsgsrc = local");
  c.constrain("inmsgdest", "inmsgdest = home");
  // A release is only legal while the lock is held.
  c.constrain("lockst", "inmsg = release ? lockst = held : true");
  // The paper-style ternary column constraint.
  c.constrain("outmsg",
              "inmsg = acquire ? "
              "(lockst = free ? outmsg = grant : outmsg = queued) : "
              "outmsg = NULL");
  c.constrain("outmsgsrc", "outmsg = NULL ? outmsgsrc = NULL : outmsgsrc = home");
  c.constrain("outmsgdest",
              "outmsg = NULL ? outmsgdest = NULL : outmsgdest = local");
  c.constrain("nxtlockst",
              "inmsg = acquire and lockst = free ? nxtlockst = held : "
              "(inmsg = release ? nxtlockst = free : nxtlockst = NULL)");
  c.add_message_triple({"inmsg", "inmsgsrc", "inmsgdest", true});
  c.add_message_triple({"outmsg", "outmsgsrc", "outmsgdest", false});

  // 3. Static checks as SQL.
  p.add_invariant(
      {"grant-only-when-free", "a grant is only issued for a free lock",
       "[select inmsg, lockst from LOCK where outmsg = grant and "
       "not lockst = free] = empty"});
  p.add_invariant(
      {"every-acquire-answered", "acquire always gets a response",
       "[select inmsg, outmsg from LOCK where inmsg = acquire and "
       "outmsg = NULL] = empty"});

  // 4. Generate and inspect through the session facade.
  const Database& db = p.database();
  std::cout << "Generated LOCK controller table:\n"
            << to_ascii(db.get("LOCK")) << "\n";

  std::cout << "SQL: select * from LOCK where outmsg = queued\n"
            << to_ascii(
                   db.query("select * from LOCK where outmsg = queued").rows)
            << "\n";

  // Results are columnar: column() hands out a contiguous span, no copies.
  QueryResult next = db.query("select nxtlockst from LOCK where inmsg = acquire");
  std::cout << "next lock states after an acquire:";
  for (const Value v : next.column("nxtlockst")) {
    std::cout << ' ' << (v.is_null() ? "-" : v.str());
  }
  std::cout << "\n\n";

  InvariantChecker checker(db);
  auto results = checker.check_all(p.invariants());
  std::cout << InvariantChecker::report(results, /*verbose=*/true) << "\n";

  // 5. Deadlock analysis under two assignments: responses sharing the
  // request channel create a cycle; a separate response channel is clean.
  ControllerTableRef ref =
      ControllerTableRef::from_spec(c, db.get("LOCK"));
  ChannelAssignment shared("shared");
  shared.assign("acquire", "local", "home", "VC0");
  shared.assign("release", "local", "home", "VC0");
  shared.assign("grant", "home", "local", "VC0");
  shared.assign("queued", "home", "local", "VC0");
  ChannelAssignment split("split");
  split.assign("acquire", "local", "home", "VC0");
  split.assign("release", "local", "home", "VC0");
  split.assign("grant", "home", "local", "VC1");
  split.assign("queued", "home", "local", "VC1");

  for (const ChannelAssignment* v : {&shared, &split}) {
    DeadlockAnalysis analysis({ref}, *v);
    std::cout << "assignment '" << v->name() << "':\n"
              << analysis.report() << "\n";
  }
  return 0;
}
