#include "protocol/controller_spec.hpp"

#include "relational/error.hpp"

namespace ccsql {

void ControllerSpec::add_column(Column column, Domain domain) {
  if (domain.column() != column.name) {
    throw SchemaError("domain/column name mismatch: " + column.name + " vs " +
                      domain.column());
  }
  if (input_.schema) {
    throw SchemaError("controller " + name_ +
                      ": cannot add columns after schema finalization");
  }
  columns_.push_back(std::move(column));
  input_.domains.push_back(std::move(domain));
}

void ControllerSpec::add_input(const std::string& name,
                               std::vector<std::string> values) {
  add_column({name, ColumnKind::kInput}, Domain(name, std::move(values)));
}

void ControllerSpec::add_output(const std::string& name,
                                std::vector<std::string> values) {
  add_column({name, ColumnKind::kOutput}, Domain(name, std::move(values)));
}

void ControllerSpec::constrain(const std::string& column,
                               std::string_view text) {
  try {
    input_.constraints.push_back(ColumnConstraint::from_text(column, text));
  } catch (const Error& e) {
    throw ParseError("controller " + name_ + ", column " + column + ": " +
                     e.what() + "\n  in: " + std::string(text));
  }
}

void ControllerSpec::constrain(const std::string& column, Expr expr) {
  input_.constraints.push_back(ColumnConstraint{column, std::move(expr)});
}

void ControllerSpec::add_message_triple(MessageTriple triple) {
  triples_.push_back(std::move(triple));
}

const MessageTriple* ControllerSpec::input_triple() const {
  for (const auto& t : triples_) {
    if (t.is_input) return &t;
  }
  return nullptr;
}

std::vector<MessageTriple> ControllerSpec::output_triples() const {
  std::vector<MessageTriple> out;
  for (const auto& t : triples_) {
    if (!t.is_input) out.push_back(t);
  }
  return out;
}

const SchemaPtr& ControllerSpec::schema() const {
  if (!input_.schema) input_.schema = make_schema(columns_);
  return input_.schema;
}

const GenerationInput& ControllerSpec::generation_input() const {
  (void)schema();  // finalize
  return input_;
}

Table ControllerSpec::generate(const FunctionRegistry* functions,
                               IncrementalTrace* trace) const {
  return generate_incremental(generation_input(), functions, trace);
}

}  // namespace ccsql
