#include "relational/schema.hpp"

#include <algorithm>

#include "relational/error.hpp"

namespace ccsql {

std::string_view to_string(ColumnKind kind) noexcept {
  switch (kind) {
    case ColumnKind::kInput:
      return "input";
    case ColumnKind::kOutput:
      return "output";
    case ColumnKind::kMeta:
      return "meta";
  }
  return "?";
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    for (std::size_t j = i + 1; j < columns_.size(); ++j) {
      if (columns_[i].name == columns_[j].name) {
        throw SchemaError("duplicate column name: " + columns_[i].name);
      }
    }
  }
}

std::shared_ptr<const Schema> Schema::of(std::vector<std::string> names) {
  std::vector<Column> cols;
  cols.reserve(names.size());
  for (auto& n : names) cols.push_back(Column{std::move(n)});
  return std::make_shared<const Schema>(std::move(cols));
}

std::optional<std::size_t> Schema::find(std::string_view name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return std::nullopt;
}

std::size_t Schema::index_of(std::string_view name) const {
  if (auto i = find(name)) return *i;
  throw BindError("unknown column: " + std::string(name));
}

bool Schema::same_names(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name) return false;
  }
  return true;
}

std::shared_ptr<const Schema> Schema::extended(Column column) const {
  if (has(column.name)) {
    throw SchemaError("column already exists: " + column.name);
  }
  auto cols = columns_;
  cols.push_back(std::move(column));
  return std::make_shared<const Schema>(std::move(cols));
}

std::shared_ptr<const Schema> Schema::project(
    const std::vector<std::string>& names) const {
  std::vector<Column> cols;
  cols.reserve(names.size());
  for (const auto& n : names) cols.push_back(columns_[index_of(n)]);
  return std::make_shared<const Schema>(std::move(cols));
}

SchemaPtr make_schema(std::vector<Column> columns) {
  return std::make_shared<const Schema>(std::move(columns));
}

}  // namespace ccsql
