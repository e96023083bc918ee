#include "relational/expr.hpp"

#include <algorithm>

#include "relational/error.hpp"

namespace ccsql {

Expr Expr::boolean(bool v) {
  Expr e;
  e.op_ = Op::kBool;
  e.bool_value_ = v;
  return e;
}

Expr Expr::compare(Atom lhs, bool negated, Atom rhs) {
  Expr e;
  e.op_ = Op::kCompare;
  e.negated_ = negated;
  e.atoms_ = {std::move(lhs), std::move(rhs)};
  return e;
}

Expr Expr::in(Atom lhs, bool negated, std::vector<Atom> set) {
  Expr e;
  e.op_ = Op::kIn;
  e.negated_ = negated;
  e.atoms_.reserve(set.size() + 1);
  e.atoms_.push_back(std::move(lhs));
  for (auto& a : set) e.atoms_.push_back(std::move(a));
  return e;
}

Expr Expr::conjunction(std::vector<Expr> children) {
  if (children.size() == 1) return std::move(children.front());
  Expr e;
  e.op_ = Op::kAnd;
  e.children_ = std::move(children);
  return e;
}

Expr Expr::disjunction(std::vector<Expr> children) {
  if (children.size() == 1) return std::move(children.front());
  Expr e;
  e.op_ = Op::kOr;
  e.children_ = std::move(children);
  return e;
}

Expr Expr::negation(Expr child) {
  Expr e;
  e.op_ = Op::kNot;
  e.children_.push_back(std::move(child));
  return e;
}

Expr Expr::ternary(Expr cond, Expr then_e, Expr else_e) {
  Expr e;
  e.op_ = Op::kTernary;
  e.children_ = {std::move(cond), std::move(then_e), std::move(else_e)};
  return e;
}

Expr Expr::call(std::string name, std::vector<Atom> args) {
  Expr e;
  e.op_ = Op::kCall;
  e.callee_ = std::move(name);
  e.atoms_ = std::move(args);
  return e;
}

namespace {

void collect_columns(const Expr& e, const Schema& full,
                     std::vector<std::string>& out) {
  for (const auto& a : e.atoms()) {
    if (a.kind == Atom::Kind::kIdent && full.has(a.text)) {
      if (std::find(out.begin(), out.end(), a.text) == out.end()) {
        out.push_back(a.text);
      }
    }
  }
  for (const auto& c : e.children()) collect_columns(c, full, out);
}

std::string atom_str(const Atom& a) {
  if (a.kind == Atom::Kind::kQuoted) return "\"" + a.text + "\"";
  if (a.kind == Atom::Kind::kParam) return "$" + a.text;
  return a.text;
}

void collect_param_max(const Expr& e, std::size_t& max_slot) {
  for (const auto& a : e.atoms()) {
    if (a.kind == Atom::Kind::kParam) {
      max_slot = std::max(max_slot, a.param_slot());
    }
  }
  for (const auto& c : e.children()) collect_param_max(c, max_slot);
}

Atom bind_atom(const Atom& a, const std::vector<std::string>& values) {
  if (a.kind != Atom::Kind::kParam) return a;
  const std::size_t slot = a.param_slot();
  if (slot == 0 || slot > values.size()) {
    throw BindError("bind_params: no value for parameter $" + a.text + " (" +
                    std::to_string(values.size()) + " bound)");
  }
  return Atom::quoted(values[slot - 1]);
}

}  // namespace

std::size_t Atom::param_slot() const {
  std::size_t slot = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return 0;
    slot = slot * 10 + static_cast<std::size_t>(c - '0');
  }
  return slot;
}

std::size_t Expr::param_count() const {
  std::size_t max_slot = 0;
  collect_param_max(*this, max_slot);
  return max_slot;
}

Expr Expr::bind_params(const std::vector<std::string>& values) const {
  Expr e;
  e.op_ = op_;
  e.bool_value_ = bool_value_;
  e.negated_ = negated_;
  e.callee_ = callee_;
  e.atoms_.reserve(atoms_.size());
  for (const auto& a : atoms_) e.atoms_.push_back(bind_atom(a, values));
  e.children_.reserve(children_.size());
  for (const auto& c : children_) e.children_.push_back(c.bind_params(values));
  return e;
}

std::vector<std::string> Expr::referenced_columns(const Schema& full) const {
  std::vector<std::string> out;
  collect_columns(*this, full, out);
  return out;
}

std::string Expr::to_string() const {
  switch (op_) {
    case Op::kBool:
      return bool_value_ ? "true" : "false";
    case Op::kCompare:
      return atom_str(atoms_[0]) + (negated_ ? " != " : " = ") +
             atom_str(atoms_[1]);
    case Op::kIn: {
      std::string s = atom_str(atoms_[0]);
      s += negated_ ? " not in (" : " in (";
      for (std::size_t i = 1; i < atoms_.size(); ++i) {
        if (i > 1) s += ", ";
        s += atom_str(atoms_[i]);
      }
      return s + ")";
    }
    case Op::kAnd:
    case Op::kOr: {
      std::string s = "(";
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) s += op_ == Op::kAnd ? " and " : " or ";
        s += children_[i].to_string();
      }
      return s + ")";
    }
    case Op::kNot:
      return "not " + children_[0].to_string();
    case Op::kTernary: {
      // Appended piecewise: GCC 12's -O3 -Wrestrict misfires on the
      // `"(" + std::string&&` chain.
      std::string s = "(";
      s += children_[0].to_string();
      s += " ? ";
      s += children_[1].to_string();
      s += " : ";
      s += children_[2].to_string();
      return s + ")";
    }
    case Op::kCall: {
      std::string s = callee_ + "(";
      for (std::size_t i = 0; i < atoms_.size(); ++i) {
        if (i > 0) s += ", ";
        s += atom_str(atoms_[i]);
      }
      return s + ")";
    }
  }
  return "?";
}

// ---- Compilation -----------------------------------------------------------

/// Compiled node: a small closed hierarchy evaluated by virtual dispatch.
/// Operand references are pre-resolved to column indices or constant values.
struct CompiledExpr::Node {
  virtual ~Node() = default;
  [[nodiscard]] virtual bool eval(RowView row) const = 0;
};

namespace {

/// A resolved operand: either a column index or a constant value.
struct Operand {
  bool is_column = false;
  std::size_t index = 0;
  Value value;

  [[nodiscard]] Value get(RowView row) const {
    return is_column ? row[index] : value;
  }
};

using NodePtr = std::shared_ptr<const CompiledExpr::Node>;

struct BoolNode final : CompiledExpr::Node {
  bool value;
  explicit BoolNode(bool v) : value(v) {}
  bool eval(RowView) const override { return value; }
};

struct CompareNode final : CompiledExpr::Node {
  Operand lhs, rhs;
  bool negated;
  bool eval(RowView row) const override {
    return (lhs.get(row) == rhs.get(row)) != negated;
  }
};

struct InNode final : CompiledExpr::Node {
  Operand lhs;
  std::vector<Operand> set;
  bool negated;
  bool eval(RowView row) const override {
    const Value v = lhs.get(row);
    bool found = false;
    for (const auto& s : set) {
      if (s.get(row) == v) {
        found = true;
        break;
      }
    }
    return found != negated;
  }
};

struct AndNode final : CompiledExpr::Node {
  std::vector<NodePtr> children;
  bool eval(RowView row) const override {
    for (const auto& c : children) {
      if (!c->eval(row)) return false;
    }
    return true;
  }
};

struct OrNode final : CompiledExpr::Node {
  std::vector<NodePtr> children;
  bool eval(RowView row) const override {
    for (const auto& c : children) {
      if (c->eval(row)) return true;
    }
    return false;
  }
};

struct NotNode final : CompiledExpr::Node {
  NodePtr child;
  bool eval(RowView row) const override { return !child->eval(row); }
};

struct TernaryNode final : CompiledExpr::Node {
  NodePtr cond, then_n, else_n;
  bool eval(RowView row) const override {
    return cond->eval(row) ? then_n->eval(row) : else_n->eval(row);
  }
};

struct CallNode final : CompiledExpr::Node {
  const FunctionRegistry::Predicate* fn = nullptr;
  std::vector<Operand> args;
  bool eval(RowView row) const override {
    std::vector<Value> vals;
    vals.reserve(args.size());
    for (const auto& a : args) vals.push_back(a.get(row));
    return (*fn)(std::span<const Value>(vals));
  }
};

struct Compiler {
  const Schema& row_schema;
  const Schema& full_schema;
  const FunctionRegistry* functions;

  Operand operand(const Atom& a) const {
    if (a.kind == Atom::Kind::kParam) {
      throw BindError("unbound parameter $" + a.text +
                      " (prepare and bind before compiling)");
    }
    Operand op;
    if (a.kind == Atom::Kind::kIdent && full_schema.has(a.text)) {
      op.is_column = true;
      op.index = row_schema.index_of(a.text);  // throws if not bound yet
      return op;
    }
    op.value = Symbol::intern(a.text);
    return op;
  }

  NodePtr build(const Expr& e) const {
    switch (e.op()) {
      case Expr::Op::kBool:
        return std::make_shared<BoolNode>(e.bool_value());
      case Expr::Op::kCompare: {
        auto n = std::make_shared<CompareNode>();
        n->lhs = operand(e.atoms()[0]);
        n->rhs = operand(e.atoms()[1]);
        n->negated = e.negated();
        return n;
      }
      case Expr::Op::kIn: {
        auto n = std::make_shared<InNode>();
        n->lhs = operand(e.atoms()[0]);
        for (std::size_t i = 1; i < e.atoms().size(); ++i) {
          n->set.push_back(operand(e.atoms()[i]));
        }
        n->negated = e.negated();
        return n;
      }
      case Expr::Op::kAnd: {
        auto n = std::make_shared<AndNode>();
        for (const auto& c : e.children()) n->children.push_back(build(c));
        return n;
      }
      case Expr::Op::kOr: {
        auto n = std::make_shared<OrNode>();
        for (const auto& c : e.children()) n->children.push_back(build(c));
        return n;
      }
      case Expr::Op::kNot: {
        auto n = std::make_shared<NotNode>();
        n->child = build(e.children()[0]);
        return n;
      }
      case Expr::Op::kTernary: {
        auto n = std::make_shared<TernaryNode>();
        n->cond = build(e.children()[0]);
        n->then_n = build(e.children()[1]);
        n->else_n = build(e.children()[2]);
        return n;
      }
      case Expr::Op::kCall: {
        auto n = std::make_shared<CallNode>();
        if (functions == nullptr || !functions->has(e.callee())) {
          throw BindError("unknown function: " + e.callee());
        }
        n->fn = functions->find(e.callee());
        for (const auto& a : e.atoms()) n->args.push_back(operand(a));
        return n;
      }
    }
    throw BindError("unreachable expression op");
  }
};

}  // namespace

bool CompiledExpr::eval(RowView row) const { return root_->eval(row); }

std::function<bool(RowView)> CompiledExpr::predicate() const {
  auto root = root_;
  return [root](RowView row) { return root->eval(row); };
}

CompiledExpr compile(const Expr& expr, const Schema& row_schema,
                     const Schema& full_schema,
                     const FunctionRegistry* functions) {
  Compiler c{row_schema, full_schema, functions};
  CompiledExpr out;
  out.root_ = c.build(expr);
  return out;
}

}  // namespace ccsql
