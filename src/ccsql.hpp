#pragma once

// The single public entry header.  examples/ and apps/ include this instead
// of reaching into subsystem-internal headers:
//
//   #include "ccsql.hpp"
//
//   ccsql::ProtocolSpec p("lock");
//   p.messages().add("acquire", ccsql::MessageClass::kRequest, "take it");
//   p.messages().add("grant", ccsql::MessageClass::kResponse, "granted");
//   p.install_functions();
//   ccsql::ControllerSpec& c = p.add_controller("LOCK");
//   c.add_input("inmsg", {"acquire"});
//   c.add_input("src", {"local"});
//   c.add_input("dest", {"home"});
//   c.add_message_triple({"inmsg", "src", "dest", /*input=*/true});
//   c.add_output("outmsg", {"NULL", "grant"});
//   c.constrain("outmsg", "inmsg = acquire ? outmsg = grant : outmsg = NULL");
//   const ccsql::Database& db = p.database();   // the solver fills LOCK
//   ccsql::QueryResult r = db.query("select * from LOCK where outmsg = grant");
//   ccsql::InvariantChecker checker(db);
//   auto results = checker.check_all(p.invariants());
//   ccsql::ChannelAssignment v("one-channel");    // then v.assign(...)
//   ccsql::DeadlockAnalysis vcg(
//       {ccsql::ControllerTableRef::from_spec(c, db.get("LOCK"))}, v);
//
// examples/quickstart.cpp runs this flow end to end.  Exposed here:
//  - Database / QueryResult — the central database: its tables, and the
//    one SELECT / emptiness path (Database::query / check_empty, planned
//    through src/plan) at the session's --jobs setting, morsel-parallel
//  - Table / format helpers — the relational substrate
//  - ProtocolSpec, ControllerSpec, ChannelAssignment — a protocol's
//    database input; the bundled protocols are built by
//    asura::make_asura() and snoopbus::make_snoopbus() (their own headers
//    under protocol/)
//  - InvariantChecker — the paper's error-detection suite runner
//  - DeadlockAnalysis — VCG construction / cycle detection
//
// Deeper layers (plan IR, the solver, the simulator core) stay internal;
// include their headers directly only from within src/.

#include "checks/invariant.hpp"
#include "checks/vcg.hpp"
#include "protocol/protocol_spec.hpp"
#include "relational/database.hpp"
#include "relational/format.hpp"
