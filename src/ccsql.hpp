#pragma once

// The single public entry header.  examples/ and apps/ include this instead
// of reaching into subsystem-internal headers:
//
//   #include "ccsql.hpp"
//
//   ccsql::ProtocolSpec spec = ccsql::asura_spec();
//   const ccsql::Database& db = spec.database();
//   ccsql::QueryResult r = db.query("select * from PCC where s2 = 'IV'");
//   ccsql::InvariantChecker checker(db);
//   ccsql::DeadlockAnalysis vcg(spec);
//
// Exposed here:
//  - Database / QueryResult — the query-session facade: each statement
//    runs through the Catalog's one SELECT / emptiness path
//    (Catalog::query / check_empty, planned through src/plan) at the
//    session's --jobs setting, morsel-parallel
//  - Table / Catalog / format helpers — the relational substrate
//  - ProtocolSpec + the bundled protocols (asura_spec, snoopbus_spec)
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
