#include "plan/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.hpp"

namespace ccsql::plan {
namespace {

bool is_const(const Expr& e) { return e.op() == Expr::Op::kBool; }

/// `not e` with the negation folded into comparisons / IN / constants where
/// possible (`e` is assumed already folded).
Expr fold_not(const Expr& e) {
  switch (e.op()) {
    case Expr::Op::kBool:
      return Expr::boolean(!e.bool_value());
    case Expr::Op::kNot:
      return e.children()[0];
    case Expr::Op::kCompare:
      return Expr::compare(e.atoms()[0], !e.negated(), e.atoms()[1]);
    case Expr::Op::kIn: {
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

std::size_t fold_predicates(PlanPtr& node) {
  std::size_t n = 0;
  for (auto& c : node->children) n += fold_predicates(c);
  if (node->kind == PlanNode::Kind::kSelect && node->predicate) {
    Expr folded = fold_expr(*node->predicate);
    if (folded.to_string() != node->predicate->to_string()) {
      node->predicate = std::move(folded);
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

// ---- 2. conjunction splitting -----------------------------------------------

void collect_conjuncts(const Expr& e, std::vector<Expr>& out) {
  if (e.op() == Expr::Op::kAnd) {
    for (const auto& c : e.children()) collect_conjuncts(c, out);
  } else {
    out.push_back(e);
  }
}

std::size_t split_conjunctions(PlanPtr& node) {
  std::size_t n = 0;
  for (auto& c : node->children) n += split_conjunctions(c);
  if (node->kind == PlanNode::Kind::kSelect && node->predicate &&
      node->predicate->op() == Expr::Op::kAnd) {
    std::vector<Expr> conjuncts;
    collect_conjuncts(*node->predicate, conjuncts);
    PlanPtr cur = std::move(node->children[0]);
    for (std::size_t i = conjuncts.size(); i-- > 0;) {
      PlanPtr sel = make_node(PlanNode::Kind::kSelect);
      sel->predicate = std::move(conjuncts[i]);
      sel->schema = cur->schema;
      sel->children.push_back(std::move(cur));
      cur = std::move(sel);
    }
    node = std::move(cur);
    ++n;
  }
  return n;
}

// ---- 3. predicate pushdown --------------------------------------------------

/// One sweep: moves the first pushable Select below the Cross at the bottom
/// of its Select chain and reports whether anything moved (optimize() loops
/// this to fixpoint).  Walking the whole chain matters: a non-pushable
/// residual (e.g. a cross-side inequality) sitting directly above the Cross
/// must not pin the pushable filters stacked above it.
bool push_once(PlanPtr& node, const PlannerOptions& opts) {
  if (node->kind == PlanNode::Kind::kSelect) {
    std::vector<PlanPtr*> links;  // slots holding each Select of the chain
    PlanPtr* cur = &node;
    while ((*cur)->kind == PlanNode::Kind::kSelect) {
      links.push_back(cur);
      cur = &(*cur)->children[0];
    }
    if ((*cur)->kind == PlanNode::Kind::kCross) {
      PlanNode& cross = **cur;
      for (PlanPtr* slot : links) {
        PlanNode& sel = **slot;
        const std::vector<std::string> cols =
            sel.predicate->referenced_columns(ident_schema_of(sel, opts));
        for (std::size_t side = 0; side < 2; ++side) {
          if (cols.empty() || !all_in(cols, *cross.children[side]->schema)) {
            continue;
          }
          PlanPtr pushed = make_node(PlanNode::Kind::kSelect);
          pushed->predicate = std::move(sel.predicate);
          pushed->children.push_back(std::move(cross.children[side]));
          pushed->schema = pushed->children[0]->schema;
          cross.children[side] = std::move(pushed);
          // Splice the emptied Select out of the chain.  The Cross object
          // itself never moves, so mutating it first is safe even when
          // `slot` is the Select directly above it.
          PlanPtr child = std::move((*slot)->children[0]);
          *slot = std::move(child);
          return true;
        }
      }
    }
  }
  for (auto& c : node->children) {
    if (push_once(c, opts)) return true;
  }
  return false;
}

// ---- 4. hash-join lowering --------------------------------------------------

/// If `node` heads a chain of Selects over a Cross, converts the
/// column=column equalities that span the two sides into HashJoin keys and
/// removes the consumed Selects.  Returns the number of rewrites.
std::size_t try_lower_join(PlanPtr& node, const PlannerOptions& opts) {
  if (node->kind != PlanNode::Kind::kSelect) return 0;
  std::vector<PlanPtr*> links;  // slots holding each Select of the chain
  PlanPtr* cur = &node;
  while ((*cur)->kind == PlanNode::Kind::kSelect) {
    links.push_back(cur);
    cur = &(*cur)->children[0];
  }
  if ((*cur)->kind != PlanNode::Kind::kCross) return 0;
  PlanNode& cross = **cur;
  const Schema& left = *cross.children[0]->schema;
  const Schema& right = *cross.children[1]->schema;

  std::vector<std::string> left_keys, right_keys;
  std::vector<std::size_t> consumed;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const Expr& p = *(*links[i])->predicate;
    if (p.op() != Expr::Op::kCompare || p.negated()) continue;
    const Schema& ident = ident_schema_of(**links[i], opts);
    const Atom& a = p.atoms()[0];
    const Atom& b = p.atoms()[1];
    if (!is_column(a, ident) || !is_column(b, ident)) continue;
    if (left.has(a.text) && right.has(b.text)) {
      left_keys.push_back(a.text);
      right_keys.push_back(b.text);
      consumed.push_back(i);
    } else if (left.has(b.text) && right.has(a.text)) {
      left_keys.push_back(b.text);
      right_keys.push_back(a.text);
      consumed.push_back(i);
    }
  }
  if (consumed.empty()) return 0;

  cross.kind = PlanNode::Kind::kHashJoin;
  cross.left_keys = std::move(left_keys);
  cross.right_keys = std::move(right_keys);
  // Splice out the consumed Selects, deepest first so shallower slots stay
  // valid.
  for (std::size_t i = consumed.size(); i-- > 0;) {
    PlanPtr* slot = links[consumed[i]];
    PlanPtr child = std::move((*slot)->children[0]);
    *slot = std::move(child);
  }
  return 1;
}

std::size_t lower_hash_joins(PlanPtr& node, const PlannerOptions& opts) {
  std::size_t n = try_lower_join(node, opts);
  for (auto& c : node->children) n += lower_hash_joins(c, opts);
  return n;
}

// ---- 4b. join column pruning ------------------------------------------------

/// A Project directly above a HashJoin narrows the join's output schema to
/// the projected columns: the executor then gathers only those columns when
/// materialising match pairs (the join keys are read from the *children*,
/// so dropping unprojected output columns never affects matching).  On wide
/// joins feeding narrow projections this removes most of the output copy —
/// the dominant cost of a high-fanout join under columnar storage.
std::size_t try_prune_join_columns(PlanNode& node) {
  if (node.kind != PlanNode::Kind::kProject || node.children.empty()) {
    return 0;
  }
  PlanNode& join = *node.children[0];
  if (join.kind != PlanNode::Kind::kHashJoin) return 0;
  std::vector<Column> kept;
  for (const Column& c : join.schema->columns()) {
    for (const std::string& name : node.columns) {
      if (c.name == name) {
        kept.push_back(c);
        break;
      }
    }
  }
  if (kept.size() >= join.schema->size()) return 0;
  join.schema = make_schema(std::move(kept));
  return 1;
}

std::size_t prune_join_columns(PlanPtr& node) {
  std::size_t n = try_prune_join_columns(*node);
  for (auto& c : node->children) n += prune_join_columns(c);
  return n;
}

// ---- 5. index lowering ------------------------------------------------------

/// If `node` heads a chain of Selects over a Scan, turns the column=literal
/// equalities into an IndexLookup on the scan and removes those Selects.
std::size_t try_lower_index(PlanPtr& node, const PlannerOptions& opts) {
  if (node->kind != PlanNode::Kind::kSelect) return 0;
  std::vector<PlanPtr*> links;
  PlanPtr* cur = &node;
  while ((*cur)->kind == PlanNode::Kind::kSelect) {
    links.push_back(cur);
    cur = &(*cur)->children[0];
  }
  if ((*cur)->kind != PlanNode::Kind::kScan) return 0;
  PlanNode& scan = **cur;

  std::vector<std::string> key_cols;
  std::vector<Value> key_vals;
  std::vector<std::size_t> consumed;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const Expr& p = *(*links[i])->predicate;
    if (p.op() != Expr::Op::kCompare || p.negated()) continue;
    const Schema& ident = ident_schema_of(**links[i], opts);
    const Atom& a = p.atoms()[0];
    const Atom& b = p.atoms()[1];
    // Exactly one side a column of the scan, the other a literal (same
    // interning rule as expression compilation).
    const Atom* col = nullptr;
    const Atom* lit = nullptr;
    if (is_column(a, ident) && !is_column(b, ident)) {
      col = &a;
      lit = &b;
    } else if (is_column(b, ident) && !is_column(a, ident)) {
      col = &b;
      lit = &a;
    } else {
      continue;
    }
    // An unbound $N parameter is not a literal: interning it here would
    // silently probe for its slot number.  Leave the predicate in place so
    // filter compilation raises BindError.
    if (lit->kind == Atom::Kind::kParam) continue;
    if (!scan.schema->has(col->text)) continue;
    key_cols.push_back(col->text);
    key_vals.push_back(Symbol::intern(lit->text));
    consumed.push_back(i);
  }
  if (consumed.empty()) return 0;

  scan.kind = PlanNode::Kind::kIndexLookup;
  scan.columns = std::move(key_cols);
  scan.key_values = std::move(key_vals);
  for (std::size_t i = consumed.size(); i-- > 0;) {
    PlanPtr* slot = links[consumed[i]];
    PlanPtr child = std::move((*slot)->children[0]);
    *slot = std::move(child);
  }
  return 1;
}

std::size_t lower_index_lookups(PlanPtr& node, const PlannerOptions& opts) {
  std::size_t n = try_lower_index(node, opts);
  for (auto& c : node->children) n += lower_index_lookups(c, opts);
  return n;
}

// ---- 6. select merging -----------------------------------------------------

/// Folds every chain of stacked Selects — over a Scan, an IndexLookup, a
/// Cross (the residuals that neither pushed down nor became join keys) or
/// anything else — into one Select over their conjunction, innermost first
/// (the order the chain ran in).  Batch bytecode's `and` narrows the
/// selection one conjunct at a time, exactly as the chain did, so each
/// fused executor path runs one compiled filter over its candidates instead
/// of materialising every intermediate result.
std::size_t merge_selects(PlanPtr& node) {
  std::size_t n = 0;
  if (node->kind == PlanNode::Kind::kSelect &&
      node->child().kind == PlanNode::Kind::kSelect) {
    std::vector<Expr> preds;
    PlanPtr* cur = &node;
    while ((*cur)->kind == PlanNode::Kind::kSelect) {
      preds.push_back(std::move(*(*cur)->predicate));
      cur = &(*cur)->children[0];
    }
    std::reverse(preds.begin(), preds.end());
    PlanPtr below = std::move(*cur);
    node->predicate = Expr::conjunction(std::move(preds));
    node->children[0] = std::move(below);
    ++n;
  }
  for (auto& c : node->children) n += merge_selects(c);
  return n;
}

// ---- 7. exists mode ---------------------------------------------------------

std::size_t drop_sorts(PlanPtr& node) {
  std::size_t n = 0;
  while (node->kind == PlanNode::Kind::kSort) {
    PlanPtr child = std::move(node->children[0]);
    node = std::move(child);
    ++n;
  }
  for (auto& c : node->children) n += drop_sorts(c);
  return n;
}

// ---- 8. estimation ----------------------------------------------------------

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
      const bool equality = node.predicate &&
                            node.predicate->op() == Expr::Op::kCompare &&
                            !node.predicate->negated();
      node.est_rows = node.child().est_rows * (equality ? 0.1 : 0.33);
      break;
    }
    case PlanNode::Kind::kCross:
      node.est_rows = node.child(0).est_rows * node.child(1).est_rows;
      break;
    case PlanNode::Kind::kHashJoin:
      node.est_rows =
          node.child(0).est_rows * node.child(1).est_rows *
          std::pow(0.1, static_cast<double>(node.left_keys.size()));
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
    case PlanNode::Kind::kLimit:
      node.est_rows = node.limit == kNoLimit
                          ? node.child().est_rows
                          : std::min(node.child().est_rows,
                                     static_cast<double>(node.limit));
      break;
    case PlanNode::Kind::kCount:
      node.est_rows = 1.0;
      break;
  }
}

}  // namespace

Expr fold_expr(const Expr& e) {
  switch (e.op()) {
    case Expr::Op::kAnd: {
      std::vector<Expr> kids;
      for (const auto& c : e.children()) {
        Expr f = fold_expr(c);
        if (is_const(f)) {
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
        Expr f = fold_expr(c);
        if (is_const(f)) {
          if (f.bool_value()) return Expr::boolean(true);
          continue;
        }
        kids.push_back(std::move(f));
      }
      if (kids.empty()) return Expr::boolean(false);
      return Expr::disjunction(std::move(kids));
    }
    case Expr::Op::kNot:
      return fold_not(fold_expr(e.children()[0]));
    case Expr::Op::kTernary: {
      Expr cond = fold_expr(e.children()[0]);
      Expr then_e = fold_expr(e.children()[1]);
      Expr else_e = fold_expr(e.children()[2]);
      if (is_const(cond)) return cond.bool_value() ? then_e : else_e;
      if (is_const(then_e) && is_const(else_e)) {
        if (then_e.bool_value() == else_e.bool_value()) return then_e;
        return then_e.bool_value() ? cond : fold_not(cond);
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
  rewrites += split_conjunctions(root);
  while (push_once(root, opts)) ++rewrites;
  rewrites += lower_hash_joins(root, opts);
  rewrites += prune_join_columns(root);
  rewrites += lower_index_lookups(root, opts);
  rewrites += merge_selects(root);
  if (opts.exists_only) {
    rewrites += drop_sorts(root);
    PlanPtr lim = make_node(PlanNode::Kind::kLimit);
    lim->limit = 1;
    lim->schema = root->schema;
    lim->children.push_back(std::move(root));
    root = std::move(lim);
    ++rewrites;
  }
  estimate(*root);
  if (rewrites > 0) CCSQL_COUNT("plan.rewrites", rewrites);
}

}  // namespace ccsql::plan
