#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccsql {

/// Role of a column in a controller table (paper, section 3).  Inputs are the
/// columns matched against incoming messages and current state; outputs are
/// the actions and next-state columns.  Meta columns carry bookkeeping added
/// by analyses (e.g. virtual-channel columns added during deadlock checking).
enum class ColumnKind { kInput, kOutput, kMeta };

/// Returns "input" / "output" / "meta".
std::string_view to_string(ColumnKind kind) noexcept;

/// A named, kind-tagged column.
struct Column {
  std::string name;
  ColumnKind kind = ColumnKind::kInput;

  friend bool operator==(const Column& a, const Column& b) = default;
};

/// An ordered list of columns.  Schemas are immutable once constructed and
/// shared between tables via shared_ptr, so copying tables is cheap.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  /// Builds a schema of all-input columns from bare names.
  static std::shared_ptr<const Schema> of(std::vector<std::string> names);

  [[nodiscard]] std::size_t size() const noexcept { return columns_.size(); }
  [[nodiscard]] const Column& column(std::size_t i) const {
    return columns_[i];
  }
  [[nodiscard]] const std::vector<Column>& columns() const noexcept {
    return columns_;
  }

  /// Index of `name`, or nullopt if absent.
  [[nodiscard]] std::optional<std::size_t> find(std::string_view name) const;

  /// Index of `name`; throws BindError if absent.
  [[nodiscard]] std::size_t index_of(std::string_view name) const;

  [[nodiscard]] bool has(std::string_view name) const {
    return find(name).has_value();
  }

  /// True if both schemas have the same column names in the same order
  /// (kinds are ignored: kinds are advisory metadata).
  [[nodiscard]] bool same_names(const Schema& other) const;

  /// Returns a new schema with `column` appended; throws SchemaError on a
  /// duplicate name.
  [[nodiscard]] std::shared_ptr<const Schema> extended(Column column) const;

  /// Returns a new schema consisting of the given columns of this schema, in
  /// the given order.
  [[nodiscard]] std::shared_ptr<const Schema> project(
      const std::vector<std::string>& names) const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.columns_ == b.columns_;
  }

 private:
  std::vector<Column> columns_;
};

using SchemaPtr = std::shared_ptr<const Schema>;

/// Convenience: make a schema from (name, kind) pairs.
SchemaPtr make_schema(std::vector<Column> columns);

}  // namespace ccsql
