#include "plan/ir.hpp"

namespace ccsql::plan {
namespace {

std::string join(const std::vector<std::string>& parts,
                 const char* sep = ", ") {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace

PlanPtr make_node(PlanNode::Kind kind) {
  auto node = std::make_unique<PlanNode>();
  node->kind = kind;
  return node;
}

std::string_view to_string(PlanNode::Kind kind) noexcept {
  switch (kind) {
    case PlanNode::Kind::kScan:
      return "Scan";
    case PlanNode::Kind::kIndexLookup:
      return "IndexLookup";
    case PlanNode::Kind::kSelect:
      return "Select";
    case PlanNode::Kind::kProject:
      return "Project";
    case PlanNode::Kind::kDistinct:
      return "Distinct";
    case PlanNode::Kind::kCross:
      return "Cross";
    case PlanNode::Kind::kUnion:
      return "Union";
    case PlanNode::Kind::kSort:
      return "Sort";
    case PlanNode::Kind::kCount:
      return "Count";
  }
  return "?";
}

std::string PlanNode::label() const {
  std::string out(plan::to_string(kind));
  switch (kind) {
    case Kind::kScan: {
      out += ' ';
      out += table_name.empty() ? "<bound>" : table_name;
      if (!alias.empty()) out += " as " + alias;
      break;
    }
    case Kind::kIndexLookup: {
      out += ' ';
      out += table_name.empty() ? "<bound>" : table_name;
      if (!alias.empty()) out += " as " + alias;
      out += " (";
      for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += columns[i];
        out += " = \"";
        out += key_values[i].str();
        out += '"';
      }
      out += ')';
      break;
    }
    case Kind::kSelect:
      if (predicate) out += " (" + predicate->to_string() + ")";
      break;
    case Kind::kProject:
      out += " [" + join(columns) + "]";
      if (distinct) out += " distinct";
      break;
    case Kind::kSort:
      out += " [" + join(order_by) + "]";
      break;
    case Kind::kCount:
      out += "(*)";
      break;
    case Kind::kCross:
      if (routed) out += " [routed]";
      break;
    case Kind::kDistinct:
    case Kind::kUnion:
      break;
  }
  return out;
}

SchemaPtr scan_schema(const Schema& base, const std::string& alias) {
  if (alias.empty()) {
    return std::make_shared<const Schema>(base);
  }
  std::vector<Column> cols;
  cols.reserve(base.size());
  for (const Column& c : base.columns()) {
    cols.push_back(Column{alias + "." + c.name, c.kind});
  }
  return make_schema(std::move(cols));
}

}  // namespace ccsql::plan
