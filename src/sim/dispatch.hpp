#pragma once

// Dense transition dispatch for the forward simulator (DESIGN.md §15).
//
// ControllerDispatch compiles a controller table once into a flat row array
// indexed by a packed mixed-radix key over the interned symbol domains
// actually appearing in the key columns, and resolves output columns to raw
// column-span pointers at compile time.  A lookup is then a handful of
// array reads and one branch per key column; a cell read is one indexed
// load.  A key space larger than kDenseLimit slots is a construction error:
// no ASURA table comes near it.
//
// The compiled form is immutable and holds only pointers into the spec's
// frozen catalog, so one CompiledTables instance is shared read-only by
// every Machine of a parallel sweep (sim/sweep.hpp) — compilation is paid
// once per process, not once per run.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "relational/table.hpp"

namespace ccsql {
class ControllerSpec;
class ProtocolSpec;
}  // namespace ccsql

namespace ccsql::sim {

class ControllerDispatch {
 public:
  /// The lookup engine.  Dense is the only one; the enum survives solely so
  /// CompiledTables::compile keeps accepting the argument perfbench passes.
  /// The benchmark change that folds bench/ into perfbench (ROADMAP item 1)
  /// removes the argument and this enum.
  enum class Mode { kDense };

  /// Handle to an output column, resolved once via col().
  using Col = std::uint16_t;

  /// Compiles `table` for lookup on `key_columns`.  The key must be unique
  /// per row: duplicate key tuples throw Error, as does a packed key space
  /// larger than kDenseLimit slots; an unknown column throws BindError.
  ControllerDispatch(const Table& table,
                     const std::vector<std::string>& key_columns);

  /// Compiles a simulated controller's table (ControllerSpec::sim): keyed on
  /// its guard columns, with every row's effects read off once.
  ControllerDispatch(const ControllerSpec& spec, const Table& table);

  /// Row index matching the key values (order of key_columns), or nullopt
  /// when the table has no such row.  The caller owns hit/miss accounting
  /// (SimCounters is per-Machine; this object may be shared).
  [[nodiscard]] std::optional<std::size_t> find(const Value* key) const {
    std::size_t idx = 0;
    for (const KeyCol& kc : key_cols_) {
      const std::uint32_t id = (key++)->id();
      const std::uint32_t code = id < kc.codes.size() ? kc.codes[id] : 0;
      if (code == 0) return std::nullopt;  // symbol outside the domain
      idx += static_cast<std::size_t>(code - 1) * kc.stride;
    }
    const std::int32_t row = rows_[idx];
    if (row < 0) return std::nullopt;
    return static_cast<std::size_t>(row);
  }

  /// Resolves an output column to a handle; call at compile time only.
  [[nodiscard]] Col col(std::string_view name);

  /// Cell read for a found row: one indexed load off the cached column span.
  [[nodiscard]] Value at(std::size_t row, Col c) const {
    return col_data_[c][row];
  }

  [[nodiscard]] const Table& table() const noexcept { return *table_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<std::string>& key_columns() const noexcept {
    return key_names_;
  }
  /// Every column resolved through col(), by handle.
  [[nodiscard]] const std::vector<std::string>& resolved() const noexcept {
    return col_names_;
  }

  /// A row's effects (DESIGN.md §15), compiled from its cells.  A send is
  /// a non-NULL output MessageTriple — type, source role, destination role
  /// — in declaration order.  A set or count is a non-NULL declared column:
  /// its value, and the guard column whose state it updates.
  struct Send {
    Value type, src, dst;
  };
  struct Update {
    std::size_t key;  // index into key_columns()
    Value value;
  };
  [[nodiscard]] std::span<const Send> sends(std::size_t row) const {
    return sends_.row(row);
  }
  [[nodiscard]] std::span<const Update> sets(std::size_t row) const {
    return sets_.row(row);
  }
  [[nodiscard]] std::span<const Update> counts(std::size_t row) const {
    return counts_.row(row);
  }

  /// Dense slot budget: a packed key space past this is rejected rather
  /// than materialized as an enormous, mostly-empty array.
  static constexpr std::size_t kDenseLimit = std::size_t{1} << 22;

 private:
  struct KeyCol {
    /// Symbol id -> 1 + dense code, 0 when the id never appears in this
    /// key column (indexing past the end means the same).
    std::vector<std::uint32_t> codes;
    std::size_t stride = 1;
  };

  const Table* table_;
  std::string name_;
  std::vector<std::string> key_names_;
  std::vector<KeyCol> key_cols_;
  std::vector<std::int32_t> rows_;      // packed key -> row, -1 = none
  std::vector<const Value*> col_data_;  // per handle
  std::vector<std::string> col_names_;  // per handle

  /// Effects of every row, flat: row r's are [start[r], start[r + 1]).
  template <class T>
  struct PerRow {
    std::vector<T> items;
    std::vector<std::uint32_t> start{0};
    [[nodiscard]] std::span<const T> row(std::size_t r) const {
      return {items.data() + start[r], items.data() + start[r + 1]};
    }
    void end_row() {
      start.push_back(static_cast<std::uint32_t>(items.size()));
    }
  };
  PerRow<Send> sends_;
  PerRow<Update> sets_, counts_;
};

class Glue;

/// One ControllerDispatch per simulated controller plus the spec's glue —
/// compiled once from a spec's frozen catalog and shared read-only across
/// the Machines of a sweep.
struct CompiledTables {
  /// The controllers the spec simulates, in spec order.
  std::vector<ControllerDispatch> ctl;
  /// What the tables do not say (sim/glue.hpp), compiled against `ctl`.
  std::unique_ptr<const Glue> glue;

  /// Index into ctl of a simulated controller; throws Error otherwise.
  [[nodiscard]] std::size_t index_of(std::string_view name) const;

  /// The one simulated controller with a row taking (type, src, dst) as its
  /// input triple (or forwarded to one), or -1 when none or several do.
  [[nodiscard]] int consumer(Value type, Value src, Value dst) const {
    if (type.id() >= inputs_.size()) return -1;
    for (const Input& i : inputs_[type.id()]) {
      if (i.src == src && i.dst == dst) return i.ctl;
    }
    return -1;
  }

  /// Delivers every message type arriving as (src, dst) that no input
  /// triple takes to the controller that takes it as (to_src, to_dst): a
  /// forwarding controller the simulator does not run (the glue's call).
  void forward(Value src, Value dst, Value to_src, Value to_dst);

  /// Compiles the spec's simulated controllers and its glue; a table that
  /// cannot compile throws Error naming it.  The returned object only
  /// references the spec's catalog; the spec must outlive it.  It is
  /// immutable and safe to share across threads.  The Mode argument is
  /// ignored (see Mode).
  static std::shared_ptr<const CompiledTables> compile(
      const ProtocolSpec& spec,
      ControllerDispatch::Mode mode = ControllerDispatch::Mode::kDense);

  ~CompiledTables();

 private:
  explicit CompiledTables(const ProtocolSpec& spec);

  struct Input {
    Value src, dst;
    int ctl;  // -1 once a second controller takes the same triple
  };
  std::vector<std::vector<Input>> inputs_;  // by message type symbol id
};

}  // namespace ccsql::sim
