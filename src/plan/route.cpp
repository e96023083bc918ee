#include "plan/route.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/obs.hpp"
#include "plan/optimizer.hpp"

namespace ccsql::plan {
namespace {

bool is_true(const Expr& e) {
  return e.op() == Expr::Op::kBool && e.bool_value();
}

}  // namespace

/// Classifies the predicate's conjuncts and compiles the route's nodes.
struct CrossRoute::Builder {
  CrossRoute& route;
  const Schema& left;
  const Schema& right;
  const Schema& ident;
  const FunctionRegistry* functions;

  // NOLINTNEXTLINE(misc-no-recursion)
  [[nodiscard]] bool reads_only_left(const Expr& e) const {
    for (const Atom& a : e.atoms()) {
      if (a.kind == Atom::Kind::kIdent && ident.has(a.text) &&
          !left.has(a.text)) {
        return false;
      }
    }
    return std::all_of(e.children().begin(), e.children().end(),
                       [&](const Expr& c) { return reads_only_left(c); });
  }

  [[nodiscard]] bool splits(const Expr& e) const {
    return e.op() == Expr::Op::kTernary && reads_only_left(e.children()[0]);
  }

  /// A key operand: a literal (same interning rule as compile_bytecode) or
  /// a left column.  An unbound $N parameter is neither.
  bool key_operand(const Atom& a, bc::Operand& out) const {
    if (a.kind == Atom::Kind::kParam) return false;
    out = bc::Operand{};
    if (a.kind == Atom::Kind::kIdent && ident.has(a.text)) {
      if (!left.has(a.text)) return false;
      out.is_column = true;
      out.column = static_cast<std::uint32_t>(left.index_of(a.text));
      return true;
    }
    out.value = Symbol::intern(a.text);
    return true;
  }

  bool right_column(const Atom& a, std::size_t& out) const {
    if (a.kind != Atom::Kind::kIdent || !ident.has(a.text) ||
        !right.has(a.text)) {
      return false;
    }
    out = right.index_of(a.text);
    return true;
  }

  /// True when `e` is `r = a` or `a = r`, not negated; fills the pair.
  bool equality(const Expr& e, std::pair<std::size_t, bc::Operand>& eq) const {
    if (e.op() != Expr::Op::kCompare || e.negated()) return false;
    for (std::size_t side = 0; side < 2; ++side) {
      if (right_column(e.atoms()[side], eq.first) &&
          key_operand(e.atoms()[1 - side], eq.second)) {
        return true;
      }
    }
    return false;
  }

  /// The id of the right-column set `columns`, added when new.
  std::uint32_t column_set(std::span<const std::size_t> columns) {
    auto& sets = route.column_sets_;
    for (std::size_t k = 0; k < sets.size(); ++k) {
      if (std::equal(sets[k].begin(), sets[k].end(), columns.begin(),
                     columns.end())) {
        return static_cast<std::uint32_t>(k);
      }
    }
    sets.emplace_back(columns.begin(), columns.end());
    return static_cast<std::uint32_t>(sets.size() - 1);
  }

  /// The keyed node of equalities (right column, key) that must all hold:
  /// one tuple, the left-column keys at its first positions.
  Node keyed_node(const std::vector<std::pair<std::size_t, bc::Operand>>& eqs) {
    Node node;
    node.kind = Node::Kind::kKeyed;
    std::vector<std::size_t> columns;
    for (const bool left_column : {true, false}) {
      for (const auto& [column, key] : eqs) {
        if (key.is_column != left_column) continue;
        columns.push_back(column);
        node.keys.push_back(key);
      }
    }
    node.columns = column_set(columns);
    node.tuples = 1;
    return node;
  }

  /// True when `e` is a keyed leaf; fills `leaf`, when given, if it is.
  bool keyed(const Expr& e, Node* leaf) {
    std::pair<std::size_t, bc::Operand> eq;
    const bool is_equality = equality(e, eq);
    if (!is_equality && (e.op() != Expr::Op::kIn || e.negated() ||
                         !right_column(e.atoms()[0], eq.first))) {
      return false;
    }
    if (leaf != nullptr) leaf->keys.clear();
    for (std::size_t i = 1; !is_equality && i < e.atoms().size(); ++i) {
      if (!key_operand(e.atoms()[i], eq.second)) return false;
      if (leaf != nullptr) leaf->keys.push_back(eq.second);
    }
    if (leaf != nullptr) {
      if (is_equality) leaf->keys = {eq.second};
      leaf->kind = Node::Kind::kKeyed;
      leaf->columns = column_set({&eq.first, 1});
      leaf->tuples = static_cast<std::uint32_t>(leaf->keys.size());
    }
    return true;
  }

  /// True when `e` is a guard tree with at least one keyed leaf.
  // NOLINTNEXTLINE(misc-no-recursion)
  [[nodiscard]] bool routes(const Expr& e) {
    if (splits(e)) return routes(e.children()[1]) || routes(e.children()[2]);
    return keyed(e, nullptr);
  }

  std::uint32_t add(Node node) {
    route.nodes_.push_back(std::move(node));
    return static_cast<std::uint32_t>(route.nodes_.size() - 1);
  }

  std::uint32_t add(Node::Kind kind) {
    Node node;
    node.kind = kind;
    return add(std::move(node));
  }

  std::uint32_t add_split(const Expr& cond) {
    Node node;
    node.kind = Node::Kind::kSplit;
    node.cond = vec::RowFilter(cond, left, ident, functions);
    return add(std::move(node));
  }

  /// Compiles the guard tree `e` into nodes, its root the next one added,
  /// and returns what of it the residual must still check: `e` with its
  /// exact leaves replaced by `true`, and `true` where a whole subtree is
  /// exact.
  // NOLINTNEXTLINE(misc-no-recursion)
  Expr build(const Expr& e) {
    if (splits(e)) {
      const std::uint32_t at = add_split(e.children()[0]);
      route.nodes_[at].then_node =
          static_cast<std::uint32_t>(route.nodes_.size());
      Expr then_rest = build(e.children()[1]);
      route.nodes_[at].else_node =
          static_cast<std::uint32_t>(route.nodes_.size());
      Expr else_rest = build(e.children()[2]);
      if (is_true(then_rest) && is_true(else_rest)) return Expr::boolean(true);
      return Expr::ternary(e.children()[0], std::move(then_rest),
                           std::move(else_rest));
    }
    if (Node leaf; keyed(e, &leaf)) {
      add(std::move(leaf));
      return Expr::boolean(true);
    }
    if (reads_only_left(e)) {
      // Every right row where the leaf holds, none where it does not.
      const std::uint32_t at = add_split(e);
      route.nodes_[at].then_node = add(Node::Kind::kAll);
      route.nodes_[at].else_node = add(Node::Kind::kNone);
      return Expr::boolean(true);
    }
    add(Node::Kind::kAll);
    return e;
  }
};

CrossRoute::CrossRoute(const Expr& pred, const Schema& left,
                       const Schema& right, const Schema& ident,
                       const FunctionRegistry* functions) {
  Builder b{*this, left, right, ident, functions};
  std::vector<Expr> conjuncts;
  collect_conjuncts(pred, conjuncts);
  // The plain equalities merge into one keyed node: every left row probes
  // one index on all their right columns at once.
  std::vector<std::pair<std::size_t, bc::Operand>> equalities;
  std::vector<Expr> rest;
  for (Expr& c : conjuncts) {
    if (std::pair<std::size_t, bc::Operand> eq; b.equality(c, eq)) {
      equalities.push_back(eq);
    } else if (b.routes(c)) {
      roots_.push_back(static_cast<std::uint32_t>(nodes_.size()));
      Expr left_over = b.build(c);
      if (!is_true(left_over)) rest.push_back(std::move(left_over));
    } else {
      rest.push_back(std::move(c));
    }
  }
  if (!equalities.empty()) {
    roots_.push_back(b.add(b.keyed_node(equalities)));
  }
  if (rest.empty()) return;
  const Expr residual = Expr::conjunction(std::move(rest));
  const std::vector<std::string> refs = residual.referenced_columns(ident);
  std::vector<Column> cols;
  for (const Schema* side : {&left, &right}) {
    for (const Column& c : side->columns()) {
      if (std::find(refs.begin(), refs.end(), c.name) == refs.end()) continue;
      cols.push_back(c);
      (side == &left ? left_columns_ : right_columns_).push_back(c.name);
    }
  }
  pair_schema_ = make_schema(std::move(cols));
  residual_.emplace(residual, *pair_schema_, ident, functions);
}

// NOLINTNEXTLINE(misc-no-recursion)
void CrossRoute::split(std::uint32_t node, vec::Columns cols,
                       std::span<const std::uint32_t> rows,
                       std::uint32_t* leaf_of, std::size_t base,
                       bc::Scratch& scratch) const {
  if (rows.empty()) return;
  const Node& n = nodes_[node];
  if (n.kind != Node::Kind::kSplit) {
    for (std::uint32_t i : rows) leaf_of[i - base] = node;
    return;
  }
  bc::Sel& pass = scratch.acquire();
  n.cond.refine(cols, rows, pass);
  if (pass.empty() || pass.size() == rows.size()) {
    // Every row takes one branch: no complement to build.
    split(pass.empty() ? n.else_node : n.then_node, cols, rows, leaf_of, base,
          scratch);
  } else {
    bc::Sel& fail = scratch.acquire();
    std::set_difference(rows.begin(), rows.end(), pass.begin(), pass.end(),
                        std::back_inserter(fail));
    split(n.then_node, cols, pass, leaf_of, base, scratch);
    split(n.else_node, cols, fail, leaf_of, base, scratch);
    scratch.release();
  }
  scratch.release();
}

// Distinct tuples hold disjoint ascending row lists: append each one's
// once, sort when several contributed.
std::span<const std::uint32_t> CrossRoute::pick(
    const Node& leaf, const HashIndex& index, const Keys& keys,
    std::size_t first, std::size_t stride, bc::Sel& scratch) const {
  if (leaf.tuples == 1) return index.find(keys.key(first), keys.hashes[first]);
  scratch.clear();
  std::size_t lists = 0;
  for (std::size_t k = 0; k < leaf.tuples; ++k) {
    const std::size_t q = first + k * stride;
    const std::span<const Value> key = keys.key(q);
    bool repeated = false;
    for (std::size_t m = 0; m < k && !repeated; ++m) {
      const std::size_t o = first + m * stride;
      repeated = keys.hashes[o] == keys.hashes[q] &&
                 std::ranges::equal(keys.key(o), key);
    }
    if (repeated) continue;
    const std::span<const std::uint32_t> rows = index.find(key, keys.hashes[q]);
    if (rows.empty()) continue;
    scratch.insert(scratch.end(), rows.begin(), rows.end());
    ++lists;
  }
  if (lists > 1) std::sort(scratch.begin(), scratch.end());
  return scratch;
}

void CrossRoute::keys_at(const Node& leaf, const Value* const* cols,
                         std::uint32_t i, Keys& out) const {
  out.width = column_sets_[leaf.columns].size();
  out.cells.resize(leaf.keys.size());
  out.hashes.resize(leaf.tuples);
  for (std::size_t p = 0; p < leaf.keys.size(); ++p) {
    out.cells[p] = leaf.keys[p].get_at(cols, i);
  }
  for (std::size_t k = 0; k < leaf.tuples; ++k) {
    out.hashes[k] = KeyHash::of(out.key(k));
  }
}

CrossRoute::Right CrossRoute::right_side(const Table& r) const {
  Right out;
  out.rows = r.row_count();
  for (const std::vector<std::size_t>& columns : column_sets_) {
    CCSQL_COUNT(r.has_cached_index(columns) ? "plan.index_hits"
                                            : "plan.index_builds",
                1);
    out.index.push_back(&r.index_on(columns));
  }
  // A node whose keys are all literals picks the same rows for every left
  // row: resolve it once.
  out.fixed.resize(nodes_.size());
  Keys keys;
  bc::Sel scratch;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const Node& leaf = nodes_[n];
    if (leaf.kind != Node::Kind::kKeyed ||
        std::any_of(leaf.keys.begin(), leaf.keys.end(),
                    [](const bc::Operand& k) { return k.is_column; })) {
      continue;
    }
    keys_at(leaf, nullptr, 0, keys);
    const std::span<const std::uint32_t> rows =
        pick(leaf, *out.index[leaf.columns], keys, 0, 1, scratch);
    out.fixed[n].emplace(rows.begin(), rows.end());
  }
  return out;
}

void CrossRoute::candidates(const Table& l, const Right& right,
                            std::size_t begin, std::size_t end,
                            std::size_t limit, bc::Sel& lsel,
                            bc::Sel& rsel) const {
  if (begin >= end || right.rows == 0 || limit == 0) return;
  // Pairs left row i with `rows` (every right row when `every`); false
  // once the limit is reached.
  const auto emit = [&](std::size_t i, std::span<const std::uint32_t> rows,
                        bool every) {
    const std::size_t take =
        std::min(every ? right.rows : rows.size(), limit - lsel.size());
    for (std::size_t k = 0; k < take; ++k) {
      lsel.push_back(static_cast<std::uint32_t>(i));
      rsel.push_back(every ? static_cast<std::uint32_t>(k) : rows[k]);
    }
    return lsel.size() < limit;
  };
  const std::size_t n = end - begin;
  const std::size_t expect = roots_.empty() ? n * right.rows : n;
  lsel.reserve(std::min(limit, expect));
  rsel.reserve(std::min(limit, expect));

  // Each left row's leaf in each tree: leaf_of[t * n + i - begin].
  const std::vector<const Value*> lcols = l.column_ptrs();
  std::vector<std::uint32_t> leaf_of(roots_.size() * n);
  {
    bc::Scratch scratch;
    bc::Sel rows(n);
    std::iota(rows.begin(), rows.end(), static_cast<std::uint32_t>(begin));
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      split(roots_[t], lcols, rows, leaf_of.data() + t * n, begin, scratch);
    }
  }
  // A tree that is one keyed node is probed by every left row: a batch of
  // rows' keys fill one buffer a cell position at a time, tuple-major (key
  // k * m + i - lo for tuple k of row i).  A leaf below a split fills the
  // keys of each row that reaches it.
  std::vector<Keys> batch(roots_.size());
  bc::Sel probe, held, tmp;
  Keys row_keys;
  for (std::size_t lo = begin; lo < end; lo += vec::kBatchRows) {
    const std::size_t hi = std::min(end, lo + vec::kBatchRows);
    const std::size_t m = hi - lo;
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      const Node& root = nodes_[roots_[t]];
      if (root.kind != Node::Kind::kKeyed || right.fixed[roots_[t]]) continue;
      Keys& b = batch[t];
      b.width = root.keys.size() / root.tuples;
      b.cells.resize(root.keys.size() * m);
      b.hashes.resize(root.tuples * m);
      for (std::size_t p = 0; p < root.keys.size(); ++p) {
        const bc::Operand& key = root.keys[p];
        Value* dst = b.cells.data() + (p / b.width * m) * b.width + p % b.width;
        for (std::size_t i = 0; i < m; ++i) {
          dst[i * b.width] = key.is_column ? lcols[key.column][lo + i] : key.value;
        }
      }
      for (std::size_t q = 0; q < b.hashes.size(); ++q) {
        b.hashes[q] = KeyHash::of(b.key(q));
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      // The row's candidates: the intersection of its leaves' picks.
      std::span<const std::uint32_t> rows;
      bool every = true;
      for (std::size_t t = 0; t < roots_.size(); ++t) {
        const std::uint32_t at = leaf_of[t * n + i - begin];
        const Node& leaf = nodes_[at];
        if (leaf.kind == Node::Kind::kAll) continue;
        std::span<const std::uint32_t> mine;
        if (right.fixed[at]) {
          mine = *right.fixed[at];
        } else if (at == roots_[t]) {
          mine = pick(leaf, *right.index[leaf.columns], batch[t], i - lo, m,
                      probe);
        } else if (leaf.kind == Node::Kind::kKeyed) {
          keys_at(leaf, lcols.data(), static_cast<std::uint32_t>(i), row_keys);
          mine = pick(leaf, *right.index[leaf.columns], row_keys, 0, 1, probe);
        }
        if (every) {
          rows = mine;
          // Keep a pick merged into `probe` while the next leaf probes.
          if (mine.data() == probe.data()) probe.swap(held);
        } else {
          tmp.clear();
          std::set_intersection(rows.begin(), rows.end(), mine.begin(),
                                mine.end(), std::back_inserter(tmp));
          held.swap(tmp);
          rows = held;
        }
        every = false;
        if (rows.empty()) break;
      }
      if ((every || !rows.empty()) && !emit(i, rows, every)) return;
    }
  }
}

}  // namespace ccsql::plan
