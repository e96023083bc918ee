#include "checks/vcg.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/pool.hpp"
#include "obs/obs.hpp"
#include "relational/database.hpp"
#include "relational/error.hpp"

namespace ccsql {

ControllerTableRef ControllerTableRef::from_spec(const ControllerSpec& spec,
                                                 const Table& table) {
  ControllerTableRef ref;
  ref.name = spec.name();
  ref.table = &table;
  const MessageTriple* in = spec.input_triple();
  if (in == nullptr) {
    throw Error("controller " + spec.name() + " declares no input triple");
  }
  ref.input = *in;
  ref.outputs = spec.output_triples();
  return ref;
}

namespace {

/// A dependency row's identity as packed symbol ids: the 8-tuple
/// (m1,s1,d1,v1,m2,s2,d2,v2) and a placement slot.  Controller rows dedup
/// per placement (slot = placement + 1); the protocol table dedups on the
/// 8-tuple alone (slot 0).  Symbols are interned, so id equality is text
/// equality: no row is rendered to compare it.
struct DepKey {
  std::array<std::uint32_t, 9> ids;
  friend bool operator==(const DepKey&, const DepKey&) = default;
};

struct DepKeyHash {
  std::size_t operator()(const DepKey& k) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the ids
    for (std::uint32_t id : k.ids) h = (h ^ id) * 0x100000001b3ull;
    return static_cast<std::size_t>(h);
  }
};

using DepKeySet = std::unordered_set<DepKey, DepKeyHash>;

DepKey dep_key(const DependencyRow& r, std::uint32_t slot) {
  return DepKey{{r.m1.id(), r.s1.id(), r.d1.id(), r.v1.id(), r.m2.id(),
                 r.s2.id(), r.d2.id(), r.v2.id(), slot}};
}

/// Symbols "0", "1", ... that tag staged rows with their positions in the
/// composition join, with the map back from symbol id to position.
/// Interned once per process and grown copy-on-write under a mutex, so a
/// round stages and reads back positions without formatting text.
struct PositionTags {
  std::vector<Value> tag;
  std::unordered_map<std::uint32_t, std::size_t> position;
};

std::shared_ptr<const PositionTags> position_tags(std::size_t n) {
  static std::mutex mu;
  static std::shared_ptr<const PositionTags> tags =
      std::make_shared<const PositionTags>();
  std::lock_guard<std::mutex> lock(mu);
  if (tags->tag.size() < n) {
    auto grown = std::make_shared<PositionTags>(*tags);
    for (std::size_t i = grown->tag.size(); i < n; ++i) {
      const Value v = V(std::to_string(i));
      grown->tag.push_back(v);
      grown->position.emplace(v.id(), i);
    }
    tags = std::move(grown);
  }
  return tags;
}

}  // namespace

std::string VcgCycle::to_string() const {
  std::ostringstream os;
  os << "cycle:";
  for (Value c : channels) os << ' ' << c.str();
  os << " -> " << channels.front().str() << '\n';
  for (const auto& w : witnesses) {
    os << "  (" << w.m1.str() << ", " << w.s1.str() << ", " << w.d1.str()
       << ", " << w.v1.str() << ") -> (" << w.m2.str() << ", " << w.s2.str()
       << ", " << w.d2.str() << ", " << w.v2.str() << ")  [" << w.origin
       << "]\n";
  }
  return os.str();
}

DeadlockAnalysis::DeadlockAnalysis(std::vector<ControllerTableRef> tables,
                                   const ChannelAssignment& v,
                                   DeadlockOptions options)
    : options_(options) {
  CCSQL_SPAN(span, "vcg.analysis", "checks");
  {
    CCSQL_SPAN(s, "vcg.controller_rows", "checks");
    build_controller_rows(tables, v);
    s.arg("rows", controller_rows_.size());
  }
  {
    CCSQL_SPAN(s, "vcg.compose", "checks");
    compose();
    s.arg("protocol_rows", protocol_rows_.size());
  }
  {
    CCSQL_SPAN(s, "vcg.build_graph", "checks");
    build_graph();
    s.arg("edges", edges_.size());
  }
  {
    CCSQL_SPAN(s, "vcg.find_cycles", "checks");
    find_cycles();
    s.arg("cycles", cycles_.size());
  }
  span.arg("protocol_rows", protocol_rows_.size());
  span.arg("cycles", cycles_.size());
  CCSQL_COUNT("vcg.analyses", 1);
  CCSQL_COUNT("vcg.controller_rows", controller_rows_.size());
  CCSQL_COUNT("vcg.protocol_rows", protocol_rows_.size());
  CCSQL_COUNT("vcg.edges", edges_.size());
  CCSQL_COUNT("vcg.cycles", cycles_.size());
}

void DeadlockAnalysis::build_controller_rows(
    const std::vector<ControllerTableRef>& tables,
    const ChannelAssignment& v) {
  std::vector<QuadPlacement> placements;
  if (options_.use_placements) {
    placements.assign(kAllPlacements.begin(), kAllPlacements.end());
  } else {
    placements.push_back(QuadPlacement::kAllDistinct);
  }

  // One task per placement relation.  Dedup keys carry the placement, so
  // cross-placement collisions cannot occur: a per-placement local seen set
  // plus a merge in placement order produces exactly the rows (and row
  // order) of the old single-threaded global-set loop.
  std::vector<std::vector<DependencyRow>> per_placement(placements.size());
  auto build_one = [&](std::size_t pi) {
    const QuadPlacement placement = placements[pi];
    std::vector<DependencyRow>& rows = per_placement[pi];
    // Deduplicate per placement: identical role-substituted rows from
    // different table rows carry the same dependency.  Only a surviving
    // row formats its provenance.
    DepKeySet seen;
    for (const auto& ref : tables) {
      const Table& t = *ref.table;
      const Schema& schema = t.schema();
      const ColumnView im = t.column(schema.index_of(ref.input.msg));
      const ColumnView is = t.column(schema.index_of(ref.input.src));
      const ColumnView id = t.column(schema.index_of(ref.input.dst));
      // Resolve each output triple's columns once, outside the row loop.
      struct OutCols {
        ColumnView m, s, d;
      };
      std::vector<OutCols> out_cols;
      out_cols.reserve(ref.outputs.size());
      for (const auto& out : ref.outputs) {
        out_cols.push_back({t.column(schema.index_of(out.msg)),
                            t.column(schema.index_of(out.src)),
                            t.column(schema.index_of(out.dst))});
      }
      for (std::size_t r = 0; r < t.row_count(); ++r) {
        const Value m1 = im[r];
        if (m1.is_null()) continue;
        const Value s1 = is[r], d1 = id[r];
        // The channel is assigned by the original roles; the placement
        // substitution is applied afterwards (paper: the extended tables
        // are modified per placement).
        const auto vc1 = v.vc_for(m1, s1, d1);
        if (!vc1) continue;
        for (const OutCols& out : out_cols) {
          const Value m2 = out.m[r];
          if (m2.is_null()) continue;
          const Value s2 = out.s[r];
          const Value d2 = out.d[r];
          const auto vc2 = v.vc_for(m2, s2, d2);
          if (!vc2) continue;  // dedicated path: no channel dependency
          DependencyRow row;
          row.m1 = m1;
          row.s1 = place_role(placement, s1);
          row.d1 = place_role(placement, d1);
          row.v1 = *vc1;
          row.m2 = m2;
          row.s2 = place_role(placement, s2);
          row.d2 = place_role(placement, d2);
          row.v2 = *vc2;
          row.placement = placement;
          const auto slot = static_cast<std::uint32_t>(placement) + 1;
          if (!seen.insert(dep_key(row, slot)).second) continue;
          row.origin = ref.name;
          row.origin += '#';
          row.origin += std::to_string(r);
          row.origin += " [";
          row.origin += to_string(placement);
          row.origin += ']';
          rows.push_back(std::move(row));
        }
      }
    }
  };
  const std::size_t jobs =
      options_.jobs != 0 ? options_.jobs : core::Pool::default_jobs();
  if (jobs > 1 && placements.size() > 1) {
    core::Pool::global().parallel_tasks(placements.size(), jobs, build_one);
  } else {
    for (std::size_t pi = 0; pi < placements.size(); ++pi) build_one(pi);
  }
  for (std::vector<DependencyRow>& rows : per_placement) {
    controller_rows_.insert(controller_rows_.end(),
                            std::make_move_iterator(rows.begin()),
                            std::make_move_iterator(rows.end()));
  }
}

void DeadlockAnalysis::compose() {
  // Start the protocol dependency table with the controller rows.
  DepKeySet seen;
  for (const auto& row : controller_rows_) {
    if (seen.insert(dep_key(row, 0)).second) protocol_rows_.push_back(row);
  }
  std::array<Value, kAllPlacements.size()> placement_value;
  for (QuadPlacement pl : kAllPlacements) {
    placement_value[static_cast<std::size_t>(pl)] = V(to_string(pl));
  }

  std::vector<DependencyRow> frontier = controller_rows_;
  for (int round = 0; round < options_.composition_rounds; ++round) {
    // The composition step is itself a relational join: the frontier rows'
    // *output* assignment against every protocol row's *input* assignment,
    // same placement (paper, section 4.4).  Stage both sides as tables and
    // let the query planner route the match through a keyed index probe;
    // the idx columns carry row provenance back out.
    Database db;
    db.set_jobs(options_.jobs != 0 ? options_.jobs
                                   : core::Pool::default_jobs());
    const std::shared_ptr<const PositionTags> tags =
        position_tags(std::max(frontier.size(), protocol_rows_.size()));
    Table f(Schema::of({"m2", "s2", "d2", "v2", "placement", "idx"}));
    f.reserve_rows(frontier.size());
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const DependencyRow& r = frontier[i];
      f.append({r.m2, r.s2, r.d2, r.v2,
                placement_value[static_cast<std::size_t>(r.placement)],
                tags->tag[i]});
    }
    Table p(Schema::of({"m1", "s1", "d1", "v1", "placement", "idx"}));
    p.reserve_rows(protocol_rows_.size());
    for (std::size_t i = 0; i < protocol_rows_.size(); ++i) {
      const DependencyRow& r = protocol_rows_[i];
      p.append({r.m1, r.s1, r.d1, r.v1,
                placement_value[static_cast<std::size_t>(r.placement)],
                tags->tag[i]});
    }
    db.put("F", std::move(f));
    db.put("P", std::move(p));
    std::string sql =
        "select f.idx, p.idx from F f, P p "
        "where f.s2 = p.s1 and f.d2 = p.d1 and f.v2 = p.v1 "
        "and f.placement = p.placement";
    // Relaxed matching joins regardless of message; exactness is recorded
    // per pair below.
    if (!options_.ignore_messages) sql += " and f.m2 = p.m1";
    // The join probe fans out across the pool (morsel-parallel); the pair
    // post-processing below stays serial so the global dedup is ordered.
    const Table pairs = db.query(sql).rows;

    std::vector<DependencyRow> fresh;
    const ColumnView fidx = pairs.column(0);
    const ColumnView pidx = pairs.column(1);
    for (std::size_t i = 0; i < pairs.row_count(); ++i) {
      const DependencyRow& r = frontier[tags->position.at(fidx[i].id())];
      const DependencyRow& s =
          protocol_rows_[tags->position.at(pidx[i].id())];
      const bool exact = s.m1 == r.m2;
      DependencyRow composed;
      composed.m1 = r.m1;
      composed.s1 = r.s1;
      composed.d1 = r.d1;
      composed.v1 = r.v1;
      composed.m2 = s.m2;
      composed.s2 = s.s2;
      composed.d2 = s.d2;
      composed.v2 = s.v2;
      composed.placement = r.placement;
      composed.composed = true;
      composed.ignored_message = !exact;
      if (!seen.insert(dep_key(composed, 0)).second) continue;
      composed.origin = "compose(";
      composed.origin += r.origin;
      composed.origin += " ; ";
      composed.origin += s.origin;
      composed.origin += ')';
      if (!exact) composed.origin += " ignoring message";
      fresh.push_back(std::move(composed));
    }
    CCSQL_COUNT("vcg.compositions", fresh.size());
    CCSQL_INSTANT("vcg.compose_round", "checks",
                  ::ccsql::obs::arg("round", round),
                  ::ccsql::obs::arg("frontier", frontier.size()),
                  ::ccsql::obs::arg("fresh", fresh.size()));
    if (fresh.empty()) break;
    protocol_rows_.insert(protocol_rows_.end(), fresh.begin(), fresh.end());
    frontier = std::move(fresh);
  }
}

void DeadlockAnalysis::build_graph() {
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < protocol_rows_.size(); ++i) {
    const auto& r = protocol_rows_[i];
    const std::uint64_t k =
        (static_cast<std::uint64_t>(r.v1.id()) << 32) | r.v2.id();
    if (seen.insert(k).second) {
      edges_.push_back(Edge{r.v1, r.v2, i});
    }
  }
}

void DeadlockAnalysis::find_cycles() {
  // Collect nodes.
  std::vector<Value> nodes;
  auto node_index = [&](Value v) -> std::size_t {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == v) return i;
    }
    nodes.push_back(v);
    return nodes.size() - 1;
  };
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj;  // (to, edge)
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const std::size_t a = node_index(edges_[e].from);
    const std::size_t b = node_index(edges_[e].to);
    if (adj.size() < nodes.size()) adj.resize(nodes.size());
    adj[a].push_back({b, e});
  }
  adj.resize(nodes.size());

  // Enumerate simple cycles: DFS from each start node, visiting only nodes
  // with index >= start, closing back to start.  The channel graph is tiny
  // (a handful of virtual channels), so this is exact and cheap.
  std::vector<std::size_t> path;       // node indices
  std::vector<std::size_t> path_edges;  // edge indices
  std::vector<bool> on_path(nodes.size(), false);

  auto emit = [&](std::size_t closing_edge) {
    if (cycles_.size() >= options_.max_cycles) return;
    VcgCycle cycle;
    for (std::size_t n : path) cycle.channels.push_back(nodes[n]);
    for (std::size_t e : path_edges) {
      cycle.witnesses.push_back(protocol_rows_[edges_[e].witness]);
    }
    cycle.witnesses.push_back(protocol_rows_[edges_[closing_edge].witness]);
    cycles_.push_back(std::move(cycle));
  };

  std::size_t start = 0;
  std::function<void(std::size_t)> dfs = [&](std::size_t u) {
    if (cycles_.size() >= options_.max_cycles) return;
    for (const auto& [w, e] : adj[u]) {
      if (w == start) {
        emit(e);
      } else if (w > start && !on_path[w]) {
        on_path[w] = true;
        path.push_back(w);
        path_edges.push_back(e);
        dfs(w);
        path_edges.pop_back();
        path.pop_back();
        on_path[w] = false;
      }
    }
  };

  for (start = 0; start < nodes.size(); ++start) {
    on_path[start] = true;
    path = {start};
    path_edges.clear();
    dfs(start);
    on_path[start] = false;
  }
}

Table DeadlockAnalysis::protocol_dependency_table() const {
  Table t(Schema::of({"m1", "s1", "d1", "v1", "m2", "s2", "d2", "v2"}));
  t.reserve_rows(protocol_rows_.size());
  for (const auto& r : protocol_rows_) {
    t.append({r.m1, r.s1, r.d1, r.v1, r.m2, r.s2, r.d2, r.v2});
  }
  return t.distinct();
}

std::vector<Value> DeadlockAnalysis::cyclic_channels() const {
  std::vector<Value> out;
  for (const auto& c : cycles_) {
    for (Value v : c.channels) {
      if (std::find(out.begin(), out.end(), v) == out.end()) {
        out.push_back(v);
      }
    }
  }
  return out;
}

std::string DeadlockAnalysis::report() const {
  std::ostringstream os;
  os << "protocol dependency table: " << protocol_rows_.size() << " rows ("
     << controller_rows_.size() << " from controllers)\n";
  os << "VCG edges:";
  for (const auto& e : edges_) {
    os << ' ' << e.from.str() << "->" << e.to.str();
  }
  os << '\n';
  if (cycles_.empty()) {
    os << "no cycles: assignment is deadlock-free\n";
  } else {
    os << cycles_.size() << " cycle(s) found:\n";
    for (const auto& c : cycles_) os << c.to_string();
  }
  return os.str();
}

}  // namespace ccsql
