#include "plan/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.hpp"

namespace ccsql::plan {
namespace {

bool is_const(const Expr& e) { return e.op() == Expr::Op::kBool; }

/// `not e` with the negation folded into comparisons / IN / constants where
/// possible (`e` is assumed already folded); sets `changed` when it folds.
Expr fold_not(const Expr& e, bool& changed) {
  switch (e.op()) {
    case Expr::Op::kBool:
      changed = true;
      return Expr::boolean(!e.bool_value());
    case Expr::Op::kNot:
      changed = true;
      return e.children()[0];
    case Expr::Op::kCompare:
      changed = true;
      return Expr::compare(e.atoms()[0], !e.negated(), e.atoms()[1]);
    case Expr::Op::kIn: {
      changed = true;
      std::vector<Atom> set(e.atoms().begin() + 1, e.atoms().end());
      return Expr::in(e.atoms()[0], !e.negated(), std::move(set));
    }
    default:
      return Expr::negation(e);
  }
}

const Schema& ident_schema_of(const PlanNode& node, const PlannerOptions& opts) {
  return opts.ident_schema != nullptr ? *opts.ident_schema : *node.schema;
}

/// The identifier-hood rule of Atom in relational/expr.hpp.
bool is_column(const Atom& a, const Schema& ident) {
  return a.kind == Atom::Kind::kIdent && ident.has(a.text);
}

bool all_in(const std::vector<std::string>& names, const Schema& schema) {
  for (const auto& n : names) {
    if (!schema.has(n)) return false;
  }
  return true;
}

// ---- 1. constant folding ----------------------------------------------------

/// True when fold_expr would rewrite `e`.  Most predicates have nothing to
/// fold, and this walk decides it without fold_expr's copy of the tree.
// NOLINTNEXTLINE(misc-no-recursion)
bool foldable(const Expr& e) {
  const auto& kids = e.children();
  if (std::any_of(kids.begin(), kids.end(), foldable)) return true;
  switch (e.op()) {
    case Expr::Op::kAnd:
    case Expr::Op::kOr:
      return std::any_of(kids.begin(), kids.end(), is_const);
    case Expr::Op::kNot: {
      const Expr::Op op = kids[0].op();
      return op == Expr::Op::kBool || op == Expr::Op::kNot ||
             op == Expr::Op::kCompare || op == Expr::Op::kIn;
    }
    case Expr::Op::kTernary:
      return is_const(kids[0]) || (is_const(kids[1]) && is_const(kids[2]));
    default:
      return false;
  }
}

std::size_t fold_predicates(PlanPtr& node) {
  std::size_t n = 0;
  for (auto& c : node->children) n += fold_predicates(c);
  if (node->kind == PlanNode::Kind::kSelect && node->predicate) {
    if (foldable(*node->predicate)) {
      bool changed = false;
      node->predicate = fold_expr(*node->predicate, changed);
      ++n;
    }
    if (is_const(*node->predicate) && node->predicate->bool_value()) {
      // Always-true filter: splice it out.
      PlanPtr child = std::move(node->children[0]);
      node = std::move(child);
      ++n;
    }
  }
  return n;
}

// ---- 2. conjunct placement --------------------------------------------------

/// The operands of `p` when it is a non-negated equality, else nullptr.
const std::vector<Atom>* equality_operands(const Expr& p) {
  return p.op() == Expr::Op::kCompare && !p.negated() ? &p.atoms() : nullptr;
}

/// Places the conjuncts stacked above `node` (`above`, outermost first) in
/// one walk down the tree and returns the number of rewrites:
///  * a Select's own conjuncts join the stack and the Select dissolves;
///  * at a Cross, a conjunct whose columns all lie in one side goes down
///    that side;
///  * at a Scan, column=literal equalities become IndexLookup keys;
///  * whatever is left becomes one Select over the node, so each fused
///    executor path runs one compiled filter — over a Cross, one route,
///    whose keyed probe takes the cross-side equalities (route.hpp).
/// Keys keep stack order, a side receives its conjuncts reversed, and the
/// Select left at a node lists them innermost first; the EXPLAIN goldens
/// pin these orders.
std::size_t place(PlanPtr& node, std::vector<Expr> above,
                  const PlannerOptions& opts) {
  if (node->kind == PlanNode::Kind::kSelect) {
    collect_conjuncts(*node->predicate, above);
    PlanPtr child = std::move(node->children[0]);
    node = std::move(child);
    return place(node, std::move(above), opts);
  }
  PlanNode& n = *node;
  const Schema& ident = ident_schema_of(n, opts);
  std::size_t rewrites = 0;
  std::vector<Expr> rest;
  if (n.kind == PlanNode::Kind::kCross) {
    const Schema& left = *n.children[0]->schema;
    const Schema& right = *n.children[1]->schema;
    std::vector<Expr> sides[2];
    for (Expr& p : above) {
      const std::vector<std::string> cols = p.referenced_columns(ident);
      if (!cols.empty() && all_in(cols, left)) {
        sides[0].push_back(std::move(p));
      } else if (!cols.empty() && all_in(cols, right)) {
        sides[1].push_back(std::move(p));
      } else {
        rest.push_back(std::move(p));
      }
    }
    for (std::size_t side = 0; side < 2; ++side) {
      rewrites += sides[side].size();
      std::reverse(sides[side].begin(), sides[side].end());
      rewrites += place(n.children[side], std::move(sides[side]), opts);
    }
  } else if (n.kind == PlanNode::Kind::kScan) {
    for (Expr& p : above) {
      // Exactly one operand a column of the scan, the other a literal (same
      // interning rule as expression compilation).  An unbound $N parameter
      // is not a literal: interning it here would silently probe for its
      // slot number, so it stays in the filter, whose compilation raises
      // BindError.
      const std::vector<Atom>* eq = equality_operands(p);
      const bool col0 = eq != nullptr && is_column((*eq)[0], ident);
      const bool col1 = eq != nullptr && is_column((*eq)[1], ident);
      if (col0 != col1) {
        const Atom& col = (*eq)[col0 ? 0 : 1];
        const Atom& lit = (*eq)[col0 ? 1 : 0];
        if (lit.kind != Atom::Kind::kParam && n.schema->has(col.text)) {
          n.columns.push_back(col.text);
          n.key_values.push_back(Symbol::intern(lit.text));
          // The scan's schema is its base table's, alias-renamed: one
          // position addresses both.
          n.key_columns.push_back(n.schema->index_of(col.text));
          continue;
        }
      }
      rest.push_back(std::move(p));
    }
    if (!n.columns.empty()) {
      n.kind = PlanNode::Kind::kIndexLookup;
      ++rewrites;
    }
  } else {
    rest = std::move(above);
    for (auto& c : n.children) rewrites += place(c, {}, opts);
  }
  if (!rest.empty()) {
    std::reverse(rest.begin(), rest.end());
    PlanPtr sel = make_node(PlanNode::Kind::kSelect);
    sel->schema = node->schema;
    sel->predicate = Expr::conjunction(std::move(rest));
    sel->children.push_back(std::move(node));
    node = std::move(sel);
  }
  return rewrites;
}

// ---- 3. join column pruning -------------------------------------------------

/// Narrows joins to the columns read above them, down a whole left-deep
/// chain.  `needed` names the columns the parent reads from `node`
/// (nullptr = all of them): a Project reads its columns; a Select over a
/// Cross — a join — keeps the needed columns of its output and asks the
/// Cross for them plus its predicate's columns; a Cross asks each side for
/// its share and re-derives its schema.  Every other node reads all its
/// children's columns.  The executor gathers only a join's surviving
/// columns when materialising match pairs, so on wide joins feeding narrow
/// projections this removes most of the output copy — the dominant cost
/// of a high-fanout join under columnar storage.
std::size_t prune_join_columns(PlanNode& node,
                               const std::vector<std::string>* needed,
                               const PlannerOptions& opts) {
  const auto needs = [](const std::vector<std::string>& names,
                        const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  std::size_t n = 0;
  if (node.kind == PlanNode::Kind::kProject) {
    return prune_join_columns(node.child(), &node.columns, opts);
  }
  if (needed != nullptr && node.kind == PlanNode::Kind::kSelect &&
      node.child().kind == PlanNode::Kind::kCross) {
    std::vector<std::string> below = *needed;
    for (std::string& c :
         node.predicate->referenced_columns(ident_schema_of(node, opts))) {
      if (!needs(below, c)) below.push_back(std::move(c));
    }
    n += prune_join_columns(node.child(), &below, opts);
    std::vector<Column> kept;
    for (const Column& c : node.child().schema->columns()) {
      if (needs(*needed, c.name)) kept.push_back(c);
    }
    // A join never narrows to no columns: its rows must stay countable, so
    // one asked for none keeps its Cross's (possibly narrowed) columns.
    // Its predicate still compiles against the Cross's schema.
    SchemaPtr narrowed =
        kept.empty() ? node.child().schema : make_schema(std::move(kept));
    if (narrowed->size() < node.schema->size()) {
      node.schema = std::move(narrowed);
      ++n;
    }
    return n;
  }
  if (needed != nullptr && node.kind == PlanNode::Kind::kCross) {
    for (auto& side : node.children) {
      std::vector<std::string> wanted;
      for (const Column& c : side->schema->columns()) {
        if (needs(*needed, c.name)) wanted.push_back(c.name);
      }
      n += prune_join_columns(*side, &wanted, opts);
    }
    std::vector<Column> cols = node.child(0).schema->columns();
    for (const Column& c : node.child(1).schema->columns()) cols.push_back(c);
    if (cols.size() < node.schema->size()) {
      node.schema = make_schema(std::move(cols));
    }
    return n;
  }
  for (auto& c : node.children) n += prune_join_columns(*c, nullptr, opts);
  return n;
}

// ---- 4. estimation ----------------------------------------------------------

/// The cross-side equalities among the conjuncts of `e`: `a = b` with `a`
/// a column of one side and `b` of the other.
// NOLINTNEXTLINE(misc-no-recursion)
std::size_t join_keys(const Expr& e, const Schema& left, const Schema& right) {
  if (e.op() == Expr::Op::kAnd) {
    std::size_t keys = 0;
    for (const Expr& c : e.children()) keys += join_keys(c, left, right);
    return keys;
  }
  const std::vector<Atom>* eq = equality_operands(e);
  const auto in = [](const Atom& a, const Schema& side) {
    return a.kind == Atom::Kind::kIdent && side.has(a.text);
  };
  return eq != nullptr && ((in((*eq)[0], left) && in((*eq)[1], right)) ||
                           (in((*eq)[0], right) && in((*eq)[1], left)))
             ? 1
             : 0;
}

void estimate(PlanNode& node) {
  for (auto& c : node.children) estimate(*c);
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      break;  // set from the base table at build time
    case PlanNode::Kind::kIndexLookup:
      // est_rows still holds the base-table size from build time; each key
      // column is assumed to select ~10% of it.
      node.est_rows = std::max(
          1.0, node.est_rows *
                   std::pow(0.1, static_cast<double>(node.columns.size())));
      break;
    case PlanNode::Kind::kSelect: {
      const std::size_t keys =
          node.child().kind == PlanNode::Kind::kCross
              ? join_keys(*node.predicate, *node.child().child(0).schema,
                          *node.child().child(1).schema)
              : 0;
      if (keys > 0) {
        // A join: each key selects ~10%; floored at one row like
        // IndexLookup, so a chain of many-key joins cannot compound
        // towards zero.
        node.est_rows = std::max(
            1.0, node.child().est_rows *
                     std::pow(0.1, static_cast<double>(keys)));
        break;
      }
      const bool equality = node.predicate &&
                            node.predicate->op() == Expr::Op::kCompare &&
                            !node.predicate->negated();
      node.est_rows = node.child().est_rows * (equality ? 0.1 : 0.33);
      break;
    }
    case PlanNode::Kind::kCross:
      node.est_rows = node.child(0).est_rows * node.child(1).est_rows;
      break;
    case PlanNode::Kind::kProject:
      node.est_rows = node.distinct && node.child().est_rows > 0
                          ? std::max(1.0, node.child().est_rows * 0.5)
                          : node.child().est_rows;
      break;
    case PlanNode::Kind::kDistinct:
      node.est_rows = node.child().est_rows > 0
                          ? std::max(1.0, node.child().est_rows * 0.5)
                          : 0.0;
      break;
    case PlanNode::Kind::kUnion: {
      double sum = 0;
      for (const auto& c : node.children) sum += c->est_rows;
      node.est_rows = sum;
      break;
    }
    case PlanNode::Kind::kSort:
      node.est_rows = node.child().est_rows;
      break;
    case PlanNode::Kind::kCount:
      node.est_rows = 1.0;
      break;
  }
}

}  // namespace

// NOLINTNEXTLINE(misc-no-recursion)
void collect_conjuncts(const Expr& e, std::vector<Expr>& out) {
  if (e.op() == Expr::Op::kAnd) {
    for (const auto& c : e.children()) collect_conjuncts(c, out);
  } else {
    out.push_back(e);
  }
}

Expr fold_expr(const Expr& e, bool& changed) {
  switch (e.op()) {
    case Expr::Op::kAnd: {
      std::vector<Expr> kids;
      for (const auto& c : e.children()) {
        Expr f = fold_expr(c, changed);
        if (is_const(f)) {
          changed = true;
          if (!f.bool_value()) return Expr::boolean(false);
          continue;  // drop neutral `true`
        }
        kids.push_back(std::move(f));
      }
      if (kids.empty()) return Expr::boolean(true);
      return Expr::conjunction(std::move(kids));
    }
    case Expr::Op::kOr: {
      std::vector<Expr> kids;
      for (const auto& c : e.children()) {
        Expr f = fold_expr(c, changed);
        if (is_const(f)) {
          changed = true;
          if (f.bool_value()) return Expr::boolean(true);
          continue;
        }
        kids.push_back(std::move(f));
      }
      if (kids.empty()) return Expr::boolean(false);
      return Expr::disjunction(std::move(kids));
    }
    case Expr::Op::kNot:
      return fold_not(fold_expr(e.children()[0], changed), changed);
    case Expr::Op::kTernary: {
      Expr cond = fold_expr(e.children()[0], changed);
      Expr then_e = fold_expr(e.children()[1], changed);
      Expr else_e = fold_expr(e.children()[2], changed);
      if (is_const(cond)) {
        changed = true;
        return cond.bool_value() ? then_e : else_e;
      }
      if (is_const(then_e) && is_const(else_e)) {
        changed = true;
        if (then_e.bool_value() == else_e.bool_value()) return then_e;
        return then_e.bool_value() ? cond : fold_not(cond, changed);
      }
      return Expr::ternary(std::move(cond), std::move(then_e),
                           std::move(else_e));
    }
    default:
      return e;
  }
}

void optimize(PlanPtr& root, const PlannerOptions& opts) {
  std::size_t rewrites = fold_predicates(root);
  rewrites += place(root, {}, opts);
  rewrites += prune_join_columns(*root, nullptr, opts);
  estimate(*root);
  if (rewrites > 0) CCSQL_COUNT("plan.rewrites", rewrites);
}

}  // namespace ccsql::plan
