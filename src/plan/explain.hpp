#pragma once

// EXPLAIN rendering: a plan tree as indented text, one operator per line,
// each carrying the optimizer's cardinality estimate and — when the plan has
// been executed — the observed output row count:
//
//   Project [a.memmsg, b.outmsg] distinct (est=3.2, actual=1)
//     Select (a.memmsg = b.inmsg) (est=2.4, actual=6)
//       Cross [routed] (est=24, actual=6)
//         Scan D as a (est=12, actual=12)
//         IndexLookup M as b (b.inmsg = "wb") (est=2, actual=3)

#include <string>

#include "plan/ir.hpp"

namespace ccsql::plan {

/// Renders `root` (children indented two spaces per level).  Nodes that were
/// never executed show `actual=-`.
[[nodiscard]] std::string render(const PlanNode& root);

/// EXPLAIN ANALYZE rendering: render() plus a profile bracket per executed
/// operator — inclusive and self wall time, rows in/out, vectorized batches,
/// parallel morsels, selection density — and the right-side index a routed
/// Cross probed (`[fused build=rows/keys/bytes]`):
///
///   Select (a.st = "bad") (est=3.2, actual=1) [time=1.2ms self=1.2ms
///       rows_in=4096 batches=4 sel=0.0%]
///
/// Self time is inclusive minus the children's inclusive sums.  Operators
/// the executor fused into their parent (a scan, index lookup or cross
/// under a select) never run their own exec() and are tagged `[fused]`;
/// their work is attributed to the fusing operator.  Requires a plan executed with
/// ExecContext::analyze set; nodes without stats render as plain render().
[[nodiscard]] std::string render_analyze(const PlanNode& root);

}  // namespace ccsql::plan
