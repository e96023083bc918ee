#include "mapping/extend.hpp"

#include <algorithm>

#include "relational/error.hpp"

namespace ccsql {

ExtendedTableBuilder::ExtendedTableBuilder(std::string name,
                                           const ControllerSpec& base)
    : name_(std::move(name)) {
  const Schema& schema = *base.schema();
  const auto& domains = base.domains();
  for (std::size_t i = 0; i < schema.size(); ++i) {
    // generation_input keeps domains in column order.
    Col col{schema.column(i), domains[i]};
    if (col.column.kind == ColumnKind::kInput) {
      base_inputs_.push_back(std::move(col));
    } else {
      base_outputs_.push_back(std::move(col));
    }
  }
  constraints_ = base.constraints();
  triples_ = base.message_triples();
}

ExtendedTableBuilder& ExtendedTableBuilder::extend_domain(
    const std::string& column, const std::vector<std::string>& extra) {
  for (auto* group : {&base_inputs_, &base_outputs_, &new_inputs_,
                      &new_outputs_}) {
    for (auto& col : *group) {
      if (col.column.name == column) {
        for (const auto& v : extra) col.domain.add(Symbol::intern(v));
        return *this;
      }
    }
  }
  throw BindError("extend_domain: unknown column " + column);
}

ExtendedTableBuilder& ExtendedTableBuilder::add_input(
    const std::string& name, std::vector<std::string> values) {
  new_inputs_.push_back(Col{Column{name, ColumnKind::kInput},
                            Domain(name, std::move(values))});
  return *this;
}

ExtendedTableBuilder& ExtendedTableBuilder::add_output(
    const std::string& name, std::vector<std::string> values) {
  new_outputs_.push_back(Col{Column{name, ColumnKind::kOutput},
                             Domain(name, std::move(values))});
  return *this;
}

ExtendedTableBuilder& ExtendedTableBuilder::wrap(const std::string& column,
                                                 std::string_view cond,
                                                 std::string_view then) {
  std::vector<Expr> originals;
  auto it = constraints_.begin();
  while (it != constraints_.end()) {
    if (it->column == column) {
      originals.push_back(std::move(it->expr));
      it = constraints_.erase(it);
    } else {
      ++it;
    }
  }
  Expr base = originals.empty() ? Expr::boolean(true)
                                : Expr::conjunction(std::move(originals));
  constraints_.push_back(ColumnConstraint{
      column, Expr::ternary(parse_expr(cond), parse_expr(then),
                            std::move(base))});
  return *this;
}

ExtendedTableBuilder& ExtendedTableBuilder::constrain(
    const std::string& column, std::string_view text) {
  constraints_.push_back(ColumnConstraint::from_text(column, text));
  return *this;
}

ControllerSpec ExtendedTableBuilder::build() const {
  ControllerSpec spec(name_);
  for (const auto* group : {&base_inputs_, &new_inputs_, &base_outputs_,
                            &new_outputs_}) {
    for (const auto& col : *group) {
      spec.add_column(col.column, col.domain);
    }
  }
  for (const auto& c : constraints_) {
    spec.constrain(c.column, c.expr);
  }
  for (const auto& t : triples_) spec.add_message_triple(t);
  return spec;
}

}  // namespace ccsql
