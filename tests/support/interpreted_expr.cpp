#include "support/interpreted_expr.hpp"

#include "relational/error.hpp"

namespace ccsql {

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
