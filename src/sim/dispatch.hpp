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
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relational/table.hpp"

namespace ccsql {
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

  /// Row index matching the key values (order of key_columns), or nullopt
  /// when the table has no such row.  The caller owns hit/miss accounting
  /// (SimCounters is per-Machine; this object may be shared).
  [[nodiscard]] std::optional<std::size_t> find(
      std::initializer_list<Value> key) const {
    std::size_t idx = 0;
    const Value* it = key.begin();
    for (const KeyCol& kc : key_cols_) {
      const std::uint32_t id = it->id();
      ++it;
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
  std::vector<KeyCol> key_cols_;
  std::vector<std::int32_t> rows_;      // packed key -> row, -1 = none
  std::vector<const Value*> col_data_;  // per handle
};

/// The six ASURA controller dispatch structures plus every output-column
/// handle the Machine hot path reads — compiled once from a spec's frozen
/// catalog and shared read-only across the Machines of a sweep.
struct CompiledTables {
  ControllerDispatch d, m, nc, cc, rsn, ioc;

  struct DirCols {
    ControllerDispatch::Col locmsg, remmsg, memmsg, datapath, nxtdirst,
        nxtdirpv, nxtbdirst, nxtbdirpv, bdirop;
  } dc;
  struct MemCols {
    ControllerDispatch::Col outmsg, memop;
  } mc;
  struct NodeCols {
    ControllerDispatch::Col netmsg, fillmsg, nxtncst, nccmpl;
  } ncc;
  struct CacheCols {
    ControllerDispatch::Col nxtcst, outmsg;
  } ccc;
  struct RsnCols {
    ControllerDispatch::Col cmdmsg, nxtrsnst, homemsg;
  } rsnc;
  struct IocCols {
    ControllerDispatch::Col outmsg, devmsg, nxtiocst;
  } iocc;

  /// Compiles the spec's controller tables; a table that cannot compile
  /// throws Error naming it.  The returned object only references the
  /// spec's catalog; the spec must outlive it.  It is immutable and safe to
  /// share across threads.  The Mode argument is ignored (see Mode).
  static std::shared_ptr<const CompiledTables> compile(
      const ProtocolSpec& spec,
      ControllerDispatch::Mode mode = ControllerDispatch::Mode::kDense);

 private:
  explicit CompiledTables(const ProtocolSpec& spec);
};

}  // namespace ccsql::sim
