#include "solver/generator.hpp"

#include <algorithm>
#include <chrono>

#include "core/pool.hpp"
#include "obs/obs.hpp"
#include "plan/planner.hpp"
#include "relational/error.hpp"
#include "relational/expr.hpp"

namespace ccsql {

void GenerationInput::validate() const {
  if (!schema) throw SchemaError("GenerationInput: null schema");
  if (domains.size() != schema->size()) {
    throw SchemaError("GenerationInput: " + std::to_string(domains.size()) +
                      " domains for " + std::to_string(schema->size()) +
                      " columns");
  }
  for (const auto& d : domains) {
    if (!schema->has(d.column())) {
      throw BindError("domain for unknown column: " + d.column());
    }
    if (d.size() == 0) {
      throw SchemaError("empty domain for column: " + d.column());
    }
  }
  // Exactly one domain per column.
  for (std::size_t i = 0; i < schema->size(); ++i) {
    const auto& name = schema->column(i).name;
    const auto count = std::count_if(
        domains.begin(), domains.end(),
        [&](const Domain& d) { return d.column() == name; });
    if (count != 1) {
      throw SchemaError("column " + name + " has " + std::to_string(count) +
                        " domains");
    }
  }
  for (const auto& c : constraints) {
    if (!schema->has(c.column)) {
      throw BindError("constraint on unknown column: " + c.column);
    }
  }
}

namespace {

const Domain& domain_for(const GenerationInput& in, const std::string& name) {
  for (const auto& d : in.domains) {
    if (d.column() == name) return d;
  }
  throw BindError("no domain for column: " + name);  // validate() precludes
}

/// One-column table over a domain, carrying the column kind from `schema`.
Table domain_table(const Domain& d, const Schema& schema) {
  Column col = schema.column(schema.index_of(d.column()));
  Table t(make_schema({col}));
  t.reserve_rows(d.size());
  for (Value v : d.values()) t.append({v});
  return t;
}

}  // namespace

Table generate_incremental(const GenerationInput& input,
                           IncrementalTrace* trace) {
  input.validate();
  const Schema& full = *input.schema;

  CCSQL_SPAN(gen_span, "solver.generate_incremental", "solver");
  gen_span.arg("columns", full.size());
  gen_span.arg("constraints", input.constraints.size());

  // Bind every constraint once: it joins the filter of the step whose
  // column completes its referenced columns, i.e. the highest schema index
  // among them.  Within a step constraints keep their input order.
  std::vector<std::vector<std::size_t>> binds(full.size());
  for (std::size_t k = 0; k < input.constraints.size(); ++k) {
    std::size_t step = 0;
    for (const auto& ref : input.constraints[k].expr.referenced_columns(full)) {
      step = std::max(step, full.index_of(ref));
    }
    binds[step].push_back(k);
  }

  // Every step runs on the process-wide lane count; the output is the same
  // at any count.
  const std::size_t jobs = core::Pool::default_jobs();
  Table cur = Table::unit();
  for (std::size_t ci = 0; ci < full.size(); ++ci) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::string& col = full.column(ci).name;
    CCSQL_SPAN(col_span, "solver.column", "solver");
    col_span.arg("column", col);
    Table dom = domain_table(domain_for(input, col), full);

    IncrementalTrace::Step step;
    step.column = col;
    step.rows_before_filter = cur.row_count() * dom.row_count();

    std::vector<Expr> ready;
    for (std::size_t k : binds[ci]) {
      ready.push_back(input.constraints[k].expr);
      step.constraints_applied.push_back(input.constraints[k].column);
    }
    step.candidates = step.rows_before_filter;
    if (ready.empty()) {
      cur = Table::cross(cur, dom);
    } else {
      // The planner pushes single-side conjuncts below the cross; the rest
      // routes on its prefix-column = new-column equalities and its guards,
      // so each prefix row meets only its candidate domain values and the
      // product is never materialised.
      std::size_t candidates = 0;
      cur = plan::cross_select(cur, dom, Expr::conjunction(std::move(ready)),
                               full, input.functions, jobs, &candidates);
      step.candidates = candidates;
    }
    col_span.arg("rows_before", step.rows_before_filter);
    col_span.arg("candidates", step.candidates);
    col_span.arg("rows_after", cur.row_count());
    col_span.arg("constraints_applied", step.constraints_applied.size());
    CCSQL_COUNT("solver.columns_generated", 1);
    CCSQL_COUNT("solver.rows_pruned",
                step.rows_before_filter - cur.row_count());
    step.rows_after = cur.row_count();
    step.micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (trace != nullptr) trace->steps.push_back(std::move(step));
  }
  gen_span.arg("rows", cur.row_count());
  CCSQL_COUNT("solver.tables_generated", 1);
  return cur;
}

std::string first_emptying_column(const GenerationInput& input) {
  IncrementalTrace trace;
  Table t = generate_incremental(input, &trace);
  if (t.row_count() != 0) return "";
  for (const auto& s : trace.steps) {
    if (s.rows_after == 0) return s.column;
  }
  return "";
}

}  // namespace ccsql
