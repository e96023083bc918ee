#include "plan/route.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

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

  /// True when `e` is a keyed leaf; fills `leaf` when it is.
  bool keyed(const Expr& e, Node& leaf) const {
    bc::Operand key;
    if (e.op() == Expr::Op::kCompare && !e.negated()) {
      for (std::size_t side = 0; side < 2; ++side) {
        if (right_column(e.atoms()[side], leaf.right_column) &&
            key_operand(e.atoms()[1 - side], key)) {
          leaf.kind = Node::Kind::kKeyed;
          leaf.keys = {key};
          return true;
        }
      }
      return false;
    }
    if (e.op() != Expr::Op::kIn || e.negated() ||
        !right_column(e.atoms()[0], leaf.right_column)) {
      return false;
    }
    leaf.keys.clear();
    for (std::size_t i = 1; i < e.atoms().size(); ++i) {
      if (!key_operand(e.atoms()[i], key)) return false;
      leaf.keys.push_back(key);
    }
    leaf.kind = Node::Kind::kKeyed;
    return true;
  }

  /// True when `e` is a guard tree with at least one keyed leaf.
  // NOLINTNEXTLINE(misc-no-recursion)
  [[nodiscard]] bool routes(const Expr& e) const {
    if (splits(e)) return routes(e.children()[1]) || routes(e.children()[2]);
    Node leaf;
    return keyed(e, leaf);
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
    if (Node leaf; keyed(e, leaf)) {
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
  std::vector<Expr> rest;
  for (Expr& c : conjuncts) {
    if (b.routes(c)) {
      roots_.push_back(static_cast<std::uint32_t>(nodes_.size()));
      Expr left_over = b.build(c);
      if (!is_true(left_over)) rest.push_back(std::move(left_over));
      continue;
    }
    rest.push_back(std::move(c));
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
                       std::uint32_t* leaf_of, bc::Scratch& scratch) const {
  if (rows.empty()) return;
  const Node& n = nodes_[node];
  if (n.kind != Node::Kind::kSplit) {
    for (std::uint32_t i : rows) leaf_of[i] = node;
    return;
  }
  bc::Sel& pass = scratch.acquire();
  n.cond.refine(cols, rows, pass);
  if (pass.empty() || pass.size() == rows.size()) {
    // Every row takes one branch: no complement to build.
    split(pass.empty() ? n.else_node : n.then_node, cols, rows, leaf_of,
          scratch);
  } else {
    bc::Sel& fail = scratch.acquire();
    std::set_difference(rows.begin(), rows.end(), pass.begin(), pass.end(),
                        std::back_inserter(fail));
    split(n.then_node, cols, pass, leaf_of, scratch);
    split(n.else_node, cols, fail, leaf_of, scratch);
    scratch.release();
  }
  scratch.release();
}

void CrossRoute::candidates(const Table& l, const Table& r, std::size_t limit,
                            bc::Sel& lsel, bc::Sel& rsel) const {
  const std::size_t ln = l.row_count();
  const auto rn = static_cast<std::uint32_t>(r.row_count());
  if (ln == 0 || rn == 0 || limit == 0) return;
  // Pairs left row i with `rows` (nullptr: every right row); false once
  // the limit is reached.
  const auto emit = [&](std::uint32_t i, const bc::Sel* rows) {
    const std::size_t n = rows != nullptr ? rows->size() : rn;
    for (std::size_t k = 0; k < n; ++k) {
      lsel.push_back(i);
      rsel.push_back(rows != nullptr ? (*rows)[k]
                                     : static_cast<std::uint32_t>(k));
      if (lsel.size() >= limit) return false;
    }
    return true;
  };
  if (roots_.empty()) {
    const std::size_t product = ln * rn;
    lsel.reserve(std::min(limit, product));
    rsel.reserve(std::min(limit, product));
    for (std::uint32_t i = 0; i < ln; ++i) {
      if (!emit(i, nullptr)) return;
    }
    return;
  }

  // Each left row's leaf in each routed tree: leaf_of[t * ln + i].
  const std::vector<const Value*> lcols = l.column_ptrs();
  std::vector<std::uint32_t> leaf_of(roots_.size() * ln, 0);
  {
    bc::Scratch scratch;
    bc::Sel all(ln);
    std::iota(all.begin(), all.end(), 0U);
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      split(roots_[t], lcols, all, leaf_of.data() + t * ln, scratch);
    }
  }

  // The right rows whose key column holds one of `leaf`'s values at left
  // row i, ascending, each once.  Distinct values hold disjoint ascending
  // buckets: append each value's once, sort when several contributed.
  const auto lookup = [&](const Node& leaf, const HashIndex& idx,
                          std::uint32_t i, bc::Sel& out) {
    out.clear();
    std::size_t buckets = 0;
    for (std::size_t k = 0; k < leaf.keys.size(); ++k) {
      const Value v = leaf.keys[k].get_at(lcols.data(), i);
      bool repeated = false;
      for (std::size_t m = 0; m < k && !repeated; ++m) {
        repeated = leaf.keys[m].get_at(lcols.data(), i) == v;
      }
      if (repeated) continue;
      const Value key[1] = {v};
      if (const auto* rows = idx.find(Table::index_key(key))) {
        for (std::size_t j : *rows) {
          out.push_back(static_cast<std::uint32_t>(j));
        }
        ++buckets;
      }
    }
    if (buckets > 1) std::sort(out.begin(), out.end());
  };

  // Each keyed leaf probes the right table's cached index on its column;
  // a leaf whose keys are all literals resolves its rows once.
  std::vector<const HashIndex*> index(nodes_.size(), nullptr);
  std::vector<bc::Sel> fixed(nodes_.size());
  std::vector<char> is_fixed(nodes_.size(), 0);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const Node& leaf = nodes_[n];
    if (leaf.kind != Node::Kind::kKeyed) continue;
    // Leaves keyed on the same column share one index (one cache lookup).
    for (std::size_t m = 0; m < n && index[n] == nullptr; ++m) {
      if (index[m] != nullptr &&
          nodes_[m].right_column == leaf.right_column) {
        index[n] = index[m];
      }
    }
    if (index[n] == nullptr) index[n] = &r.index_on({leaf.right_column});
    is_fixed[n] = static_cast<char>(std::none_of(
        leaf.keys.begin(), leaf.keys.end(),
        [](const bc::Operand& k) { return k.is_column; }));
    if (is_fixed[n]) lookup(leaf, *index[n], 0, fixed[n]);
  }

  // A row's candidates are the intersection of its leaves' picks.
  lsel.reserve(ln);
  rsel.reserve(ln);
  bc::Sel probe, acc, tmp;
  for (std::uint32_t i = 0; i < ln; ++i) {
    const bc::Sel* rows = nullptr;  // nullptr: every right row
    bool none = false;
    for (std::size_t t = 0; t < roots_.size() && !none; ++t) {
      const std::uint32_t at = leaf_of[t * ln + i];
      const Node& leaf = nodes_[at];
      if (leaf.kind == Node::Kind::kAll) continue;
      if (leaf.kind == Node::Kind::kNone) {
        none = true;
        continue;
      }
      const bc::Sel* mine = &fixed[at];
      if (!is_fixed[at]) {
        lookup(leaf, *index[at], i, probe);
        mine = &probe;
      }
      if (rows == nullptr) {
        rows = mine;
      } else {
        tmp.clear();
        std::set_intersection(rows->begin(), rows->end(), mine->begin(),
                              mine->end(), std::back_inserter(tmp));
        acc.swap(tmp);
        rows = &acc;
      }
      if (rows == &probe) {
        acc.swap(probe);  // keep the pick while the next leaf probes
        rows = &acc;
      }
      none = rows->empty();
    }
    if (!none && !emit(i, rows)) return;
  }
}

}  // namespace ccsql::plan
