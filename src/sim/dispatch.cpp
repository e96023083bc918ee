#include "sim/dispatch.hpp"

#include <algorithm>
#include <array>

#include "protocol/protocol_spec.hpp"
#include "relational/error.hpp"
#include "sim/glue.hpp"

namespace ccsql::sim {

ControllerDispatch::ControllerDispatch(
    const Table& table, const std::vector<std::string>& key_columns)
    : table_(&table), key_names_(key_columns), key_cols_(key_columns.size()) {
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

ControllerDispatch::ControllerDispatch(const ControllerSpec& spec,
                                       const Table& table)
    : ControllerDispatch(table, spec.sim().key) {
  name_ = spec.name();
  struct Source {
    ColumnView col;
    std::size_t key;
  };
  const auto sources = [&](const auto& pairs) {
    std::vector<Source> out;
    for (const auto& [column, field] : pairs) {
      const auto k = std::find(key_names_.begin(), key_names_.end(), field);
      if (k == key_names_.end()) {
        throw Error(column + " updates " + field + ", which is not a guard");
      }
      out.push_back({table.column(column),
                     static_cast<std::size_t>(k - key_names_.begin())});
    }
    return out;
  };
  std::vector<std::array<ColumnView, 3>> triples;
  for (const MessageTriple& t : spec.output_triples()) {
    triples.push_back(
        {table.column(t.msg), table.column(t.src), table.column(t.dst)});
  }
  const std::vector<Source> sets = sources(spec.sim().sets);
  const std::vector<Source> counts = sources(spec.sim().counts);
  const auto compile = [](PerRow<Update>& out, const std::vector<Source>& from,
                          std::size_t r) {
    for (const Source& f : from) {
      if (!f.col[r].is_null()) out.items.push_back({f.key, f.col[r]});
    }
    out.end_row();
  };
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    for (const auto& [type, src, dst] : triples) {
      if (!type[r].is_null()) sends_.items.push_back({type[r], src[r], dst[r]});
    }
    sends_.end_row();
    compile(sets_, sets, r);
    compile(counts_, counts, r);
  }
}

ControllerDispatch::Col ControllerDispatch::col(std::string_view name) {
  col_data_.push_back(table_->column(name).data());
  col_names_.emplace_back(name);
  return static_cast<Col>(col_data_.size() - 1);
}

CompiledTables::CompiledTables(const ProtocolSpec& spec) {
  for (const auto& c : spec.controllers()) {
    if (c->sim().key.empty()) continue;
    if (c->sim().key.size() > Step::kMaxKey) {
      throw Error(c->name() + ": more guard columns than a step holds");
    }
    const Table& table = spec.database().get(c->name());
    try {
      ctl.emplace_back(*c, table);
    } catch (const Error& e) {
      throw Error(c->name() + ": " + e.what());
    }
    // Index every input triple the table's rows take, by message type.
    const auto ci = static_cast<int>(ctl.size() - 1);
    const MessageTriple* in = c->input_triple();
    if (in == nullptr) continue;
    const ColumnView type = table.column(in->msg);
    const ColumnView src = table.column(in->src);
    const ColumnView dst = table.column(in->dst);
    for (std::size_t r = 0; r < table.row_count(); ++r) {
      if (type[r].id() >= inputs_.size()) inputs_.resize(type[r].id() + 1);
      std::vector<Input>& ins = inputs_[type[r].id()];
      const auto same = [&](const Input& i) {
        return i.src == src[r] && i.dst == dst[r];
      };
      const auto it = std::find_if(ins.begin(), ins.end(), same);
      if (it == ins.end()) {
        ins.push_back({src[r], dst[r], ci});
      } else if (it->ctl != ci) {
        it->ctl = -1;
      }
    }
  }
  glue = make_glue(spec, *this);
}

CompiledTables::~CompiledTables() = default;

std::size_t CompiledTables::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < ctl.size(); ++i) {
    if (ctl[i].name() == name) return i;
  }
  throw Error("sim: controller " + std::string(name) + " is not simulated");
}

void CompiledTables::forward(Value src, Value dst, Value to_src,
                             Value to_dst) {
  for (std::vector<Input>& ins : inputs_) {
    const auto has = [&](Value s, Value d) {
      return std::find_if(ins.begin(), ins.end(), [&](const Input& i) {
        return i.src == s && i.dst == d;
      });
    };
    const auto to = has(to_src, to_dst);
    if (to != ins.end() && has(src, dst) == ins.end()) {
      ins.push_back({src, dst, to->ctl});
    }
  }
}

std::shared_ptr<const CompiledTables> CompiledTables::compile(
    const ProtocolSpec& spec, ControllerDispatch::Mode /*mode*/) {
  return std::shared_ptr<const CompiledTables>(new CompiledTables(spec));
}

}  // namespace ccsql::sim
