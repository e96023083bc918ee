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

}  // namespace ccsql
