#include "support/naive_solver.hpp"

#include <limits>
#include <vector>

#include "obs/obs.hpp"
#include "relational/error.hpp"
#include "support/interpreted_expr.hpp"

namespace ccsql::naive {

std::uint64_t cross_cardinality(const GenerationInput& input) {
  std::uint64_t n = 1;
  for (const auto& d : input.domains) {
    const std::uint64_t s = d.size();
    if (n > std::numeric_limits<std::uint64_t>::max() / s) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    n *= s;
  }
  return n;
}

namespace {

const Domain& domain_for(const GenerationInput& in, const std::string& name) {
  for (const auto& d : in.domains) {
    if (d.column() == name) return d;
  }
  throw BindError("no domain for column: " + name);  // validate() precludes
}

}  // namespace

Table generate_monolithic(const GenerationInput& input,
                          const FunctionRegistry* functions) {
  input.validate();
  const Schema& full = *input.schema;
  CCSQL_SPAN(span, "solver.generate_monolithic", "solver");
  span.arg("columns", full.size());
  span.arg("cross_cardinality", cross_cardinality(input));

  // Domains in schema order.
  std::vector<const Domain*> doms;
  doms.reserve(full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    doms.push_back(&domain_for(input, full.column(i).name));
  }

  // The odometer tests one candidate row at a time, so it filters with the
  // interpreted walk, whose short-circuit stops at the first failing
  // conjunct; the bytecode engine only pays off over batches of rows.
  // Keeping this path interpreter-only also makes the monolithic-vs-
  // incremental equivalence tests a genuine cross-engine check (the
  // incremental path filters through the batch executor).
  std::vector<CompiledExpr> preds;
  for (const auto& c : input.constraints) {
    preds.push_back(compile(c.expr, full, full, functions));
  }

  Table out(input.schema);
  if (full.size() == 0) return Table::unit();

  // Odometer enumeration of the cross product (no materialization).
  std::vector<std::size_t> idx(full.size(), 0);
  std::vector<Value> row(full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    row[i] = doms[i]->values()[0];
  }
  for (;;) {
    bool ok = true;
    for (const auto& p : preds) {
      if (!p.eval(RowView(row))) {
        ok = false;
        break;
      }
    }
    if (ok) out.append(RowView(row));

    // Advance the odometer (last column fastest).
    std::size_t i = full.size();
    while (i > 0) {
      --i;
      if (++idx[i] < doms[i]->size()) {
        row[i] = doms[i]->values()[idx[i]];
        break;
      }
      idx[i] = 0;
      row[i] = doms[i]->values()[0];
      if (i == 0) return out;
    }
  }
}

}  // namespace ccsql::naive
