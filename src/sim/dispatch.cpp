#include "sim/dispatch.hpp"

#include "protocol/asura/asura.hpp"
#include "protocol/protocol_spec.hpp"
#include "relational/error.hpp"

namespace ccsql::sim {

ControllerDispatch::ControllerDispatch(
    const Table& table, const std::vector<std::string>& key_columns)
    : table_(&table), key_cols_(key_columns.size()) {
  // One code table per key column: the distinct symbols appearing in the
  // column, densely renumbered.  A queried symbol outside the column's
  // domain can match no row, so code 0 doubles as an early miss.
  std::vector<ColumnView> cols;
  cols.reserve(key_columns.size());
  std::size_t slots = 1;
  for (std::size_t k = 0; k < key_columns.size(); ++k) {
    cols.push_back(table.column(key_columns[k]));
    KeyCol& kc = key_cols_[k];
    std::uint32_t card = 0;
    for (std::size_t r = 0; r < table.row_count(); ++r) {
      const std::uint32_t id = cols[k][r].id();
      if (id >= kc.codes.size()) kc.codes.resize(id + 1, 0);
      if (kc.codes[id] == 0) kc.codes[id] = ++card;
    }
    kc.stride = slots;
    slots *= card == 0 ? 1 : card;
    if (slots > kDenseLimit) {
      throw Error("ControllerDispatch: key space of " +
                  std::to_string(slots) + " slots exceeds kDenseLimit (" +
                  std::to_string(kDenseLimit) + ")");
    }
  }
  rows_.assign(slots, -1);
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    std::size_t idx = 0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      idx += static_cast<std::size_t>(key_cols_[k].codes[cols[k][r].id()] -
                                      1) *
             key_cols_[k].stride;
    }
    if (rows_[idx] >= 0) {
      throw Error("ControllerDispatch: duplicate key tuple at row " +
                  std::to_string(r));
    }
    rows_[idx] = static_cast<std::int32_t>(r);
  }
}

ControllerDispatch::Col ControllerDispatch::col(std::string_view name) {
  col_data_.push_back(table_->column(name).data());
  return static_cast<Col>(col_data_.size() - 1);
}

namespace {

/// Compiles one catalog table, prefixing any compile error with its name.
ControllerDispatch compile_table(const ProtocolSpec& spec, const char* name,
                                 const std::vector<std::string>& keys) {
  try {
    return ControllerDispatch(spec.database().catalog().get(name), keys);
  } catch (const Error& e) {
    throw Error(std::string(name) + ": " + e.what());
  }
}

}  // namespace

CompiledTables::CompiledTables(const ProtocolSpec& spec)
    : d(compile_table(spec, asura::kDirectory,
                      {"inmsg", "dirst", "dirlookup", "dirpv", "bdirst",
                       "bdirpv"})),
      m(compile_table(spec, asura::kMemory, {"inmsg"})),
      nc(compile_table(spec, asura::kNode, {"inmsg", "ncst"})),
      cc(compile_table(spec, asura::kCache, {"inmsg", "cst"})),
      rsn(compile_table(spec, asura::kRemoteSnoop, {"inmsg", "rsnst"})),
      ioc(compile_table(spec, asura::kIo, {"inmsg", "iocst"})) {
  dc = {d.col("locmsg"),   d.col("remmsg"),   d.col("memmsg"),
        d.col("datapath"), d.col("nxtdirst"), d.col("nxtdirpv"),
        d.col("nxtbdirst"), d.col("nxtbdirpv"), d.col("bdirop")};
  mc = {m.col("outmsg"), m.col("memop")};
  ncc = {nc.col("netmsg"), nc.col("fillmsg"), nc.col("nxtncst"),
         nc.col("nccmpl")};
  ccc = {cc.col("nxtcst"), cc.col("outmsg")};
  rsnc = {rsn.col("cmdmsg"), rsn.col("nxtrsnst"), rsn.col("homemsg")};
  iocc = {ioc.col("outmsg"), ioc.col("devmsg"), ioc.col("nxtiocst")};
}

std::shared_ptr<const CompiledTables> CompiledTables::compile(
    const ProtocolSpec& spec, ControllerDispatch::Mode /*mode*/) {
  return std::shared_ptr<const CompiledTables>(new CompiledTables(spec));
}

}  // namespace ccsql::sim
