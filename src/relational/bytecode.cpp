#include "relational/bytecode.hpp"

#include <algorithm>
#include <numeric>

#include "obs/obs.hpp"
#include "relational/error.hpp"

namespace ccsql {
namespace {

/// Extends `out` by `extra` slots and returns a pointer to the first new
/// slot.  The batch kernels write unconditionally through this pointer and
/// advance a cursor only for accepted rows ("branchless selection"), then
/// trim with shrink_to().
std::uint32_t* grow(bc::Sel& out, std::size_t extra) {
  const std::size_t base = out.size();
  out.resize(base + extra);
  return out.data() + base;
}

void shrink_to(bc::Sel& out, const std::uint32_t* end) {
  out.resize(static_cast<std::size_t>(end - out.data()));
}

/// Appends the members of `sel` not present in `sub` (sub is a sorted
/// subsequence of sel) to `out` — the selection-vector complement used by
/// NOT, the OR remainder, and the ternary's else branch.
void complement(std::span<const std::uint32_t> sel, const bc::Sel& sub,
                bc::Sel& out) {
  std::uint32_t* dst = grow(out, sel.size());
  const std::uint32_t* s = sub.data();
  const std::uint32_t* s_end = s + sub.size();
  for (std::uint32_t i : sel) {
    const bool drop = s != s_end && *s == i;
    s += drop;
    *dst = i;
    dst += !drop;
  }
  shrink_to(out, dst);
}

/// Sorted disjoint merge of `a` and `b` appended to `out`.
void merge_into(const bc::Sel& a, const bc::Sel& b, bc::Sel& out) {
  std::uint32_t* dst = grow(out, a.size() + b.size());
  std::uint32_t* end =
      std::merge(a.begin(), a.end(), b.begin(), b.end(), dst);
  shrink_to(out, end);
}

}  // namespace

namespace bc {

// ---- evaluation -------------------------------------------------------------

struct Program::NodeEval {
  const Program& p;
  const Value* const* cols = nullptr;  // one base pointer per schema column
  Scratch* scratch = nullptr;

  [[nodiscard]] bool call_at(const Insn& in, std::uint32_t i) const {
    Value inline_args[8];
    std::vector<Value> heap_args;
    Value* args = inline_args;
    if (in.argc > 8) {
      heap_args.resize(in.argc);
      args = heap_args.data();
    }
    for (std::uint32_t k = 0; k < in.argc; ++k) {
      args[k] = p.operands_[in.args + k].get_at(cols, i);
    }
    return (*in.fn)(std::span<const Value>(args, in.argc));
  }

  // -- batch ------------------------------------------------------------------

  /// Appends the members of `sel` accepted by the subtree rooted at insn
  /// `r` to `out`, preserving ascending order.
  // NOLINTNEXTLINE(misc-no-recursion)
  void run(std::uint32_t r, std::span<const std::uint32_t> sel,
           Sel& out) const {
    // The ternary hands each branch only its side of the condition split,
    // which can be empty — and cmp_batch's dense-batch detection reads
    // sel.front()/sel.back(), so the empty selection must stop here.
    if (sel.empty()) return;
    const Insn& in = p.insns_[r];
    switch (in.op) {
      case Op::kConst:
        if (in.imm) out.insert(out.end(), sel.begin(), sel.end());
        return;
      case Op::kCmp:
        cmp_batch(in, sel, out);
        return;
      case Op::kIn: {
        std::uint32_t* dst = grow(out, sel.size());
        const Operand* members = p.operands_.data() + in.args;
        const std::uint32_t argc = in.argc;
        const bool neg = in.negated;
        const Operand& lhs = p.operands_[in.a];
        for (std::uint32_t i : sel) {
          const Value v = lhs.get_at(cols, i);
          bool found = false;
          for (std::uint32_t k = 0; k < argc; ++k) {
            found |= members[k].get_at(cols, i) == v;
          }
          *dst = i;
          dst += found != neg;
        }
        shrink_to(out, dst);
        return;
      }
      case Op::kCall: {
        std::uint32_t* dst = grow(out, sel.size());
        for (std::uint32_t i : sel) {
          *dst = i;
          dst += call_at(in, i);
        }
        shrink_to(out, dst);
        return;
      }
      case Op::kAnd: {
        if (in.argc == 0) {  // vacuous conjunction: everything passes
          out.insert(out.end(), sel.begin(), sel.end());
          return;
        }
        // Refine the selection conjunct by conjunct; later conjuncts only
        // ever see rows every earlier conjunct accepted.
        Sel& a = scratch->acquire();
        Sel& b = scratch->acquire();
        std::span<const std::uint32_t> cur = sel;
        for (std::uint32_t k = 0; k + 1 < in.argc; ++k) {
          Sel& dst = (cur.data() == a.data()) ? b : a;
          dst.clear();
          run(p.roots_[in.args + k], cur, dst);
          cur = dst;
          if (cur.empty()) break;
        }
        if (!cur.empty()) run(p.roots_[in.args + in.argc - 1], cur, out);
        scratch->release(2);
        return;
      }
      case Op::kOr: {
        // Later disjuncts only see rows every earlier disjunct rejected;
        // accepted sets are disjoint, so the union is a sorted merge.
        Sel& rem = scratch->acquire();
        Sel& next_rem = scratch->acquire();
        Sel& hit = scratch->acquire();
        Sel& acc = scratch->acquire();
        Sel& merged = scratch->acquire();
        rem.assign(sel.begin(), sel.end());
        for (std::uint32_t k = 0; k < in.argc && !rem.empty(); ++k) {
          hit.clear();
          run(p.roots_[in.args + k], rem, hit);
          if (hit.empty()) continue;
          merged.clear();
          merge_into(acc, hit, merged);
          acc.swap(merged);
          next_rem.clear();
          complement(rem, hit, next_rem);
          rem.swap(next_rem);
        }
        out.insert(out.end(), acc.begin(), acc.end());
        scratch->release(5);
        return;
      }
      case Op::kNot: {
        Sel& hit = scratch->acquire();
        run(p.roots_[in.args], sel, hit);
        complement(sel, hit, out);
        scratch->release();
        return;
      }
      case Op::kTernary: {
        Sel& cond = scratch->acquire();
        Sel& rest = scratch->acquire();
        Sel& then_hit = scratch->acquire();
        Sel& else_hit = scratch->acquire();
        run(p.roots_[in.args], sel, cond);
        complement(sel, cond, rest);
        run(p.roots_[in.args + 1], cond, then_hit);
        run(p.roots_[in.args + 2], rest, else_hit);
        merge_into(then_hit, else_hit, out);
        scratch->release(4);
        return;
      }
    }
  }

  /// The hot leaf: specialised branchless loops per operand shape, no
  /// dispatch inside.
  void cmp_batch(const Insn& in, std::span<const std::uint32_t> sel,
                 Sel& out) const {
    const Operand& l = p.operands_[in.a];
    const Operand& r = p.operands_[in.b];
    const bool neg = in.negated;
    if (!l.is_column && !r.is_column) {
      if ((l.value == r.value) != neg) {
        out.insert(out.end(), sel.begin(), sel.end());
      }
      return;
    }
    std::uint32_t* dst = grow(out, sel.size());
    // A dense batch degenerates to the stride-1 range loop; only refined
    // (sparse) selections pay the per-index gather.
    const bool dense =
        sel.back() - sel.front() + 1 == static_cast<std::uint32_t>(sel.size());
    if (l.is_column != r.is_column) {
      const Value* col = cols[l.is_column ? l.column : r.column];
      const Value c = l.is_column ? r.value : l.value;
      if (dense) {
        for (std::uint32_t i = sel.front(); i <= sel.back(); ++i) {
          *dst = i;
          dst += (col[i] == c) != neg;
        }
      } else {
        for (std::uint32_t i : sel) {
          *dst = i;
          dst += (col[i] == c) != neg;
        }
      }
    } else {
      const Value* ca = cols[l.column];
      const Value* cb = cols[r.column];
      if (dense) {
        for (std::uint32_t i = sel.front(); i <= sel.back(); ++i) {
          *dst = i;
          dst += (ca[i] == cb[i]) != neg;
        }
      } else {
        for (std::uint32_t i : sel) {
          *dst = i;
          dst += (ca[i] == cb[i]) != neg;
        }
      }
    }
    shrink_to(out, dst);
  }
};

void Program::eval_batch(std::span<const Value* const> cols,
                         std::span<const std::uint32_t> sel, Sel& out,
                         Scratch& scratch) const {
  out.clear();
  if (sel.empty()) return;
  NodeEval ev{*this, cols.data(), &scratch};
  ev.run(static_cast<std::uint32_t>(insns_.size() - 1), sel, out);
}

void Program::eval_range(std::span<const Value* const> cols,
                         std::uint32_t begin, std::uint32_t end, Sel& out,
                         Scratch& scratch) const {
  out.clear();
  if (begin >= end) return;
  Sel& sel = scratch.acquire();
  sel.resize(end - begin);
  std::iota(sel.begin(), sel.end(), begin);
  NodeEval ev{*this, cols.data(), &scratch};
  ev.run(static_cast<std::uint32_t>(insns_.size() - 1), sel, out);
  scratch.release();
}

}  // namespace bc

// ---- compilation ------------------------------------------------------------

namespace {

struct BcCompiler {
  const Schema& row_schema;
  const Schema& full_schema;
  const FunctionRegistry* functions;
  bc::Program& out;

  std::vector<bc::Insn>& insns;
  std::vector<bc::Operand>& operands;
  std::vector<std::uint32_t>& roots;

  std::uint32_t operand(const Atom& a) const {
    if (a.kind == Atom::Kind::kParam) {
      throw BindError("unbound parameter $" + a.text +
                      " (prepare and bind before compiling)");
    }
    bc::Operand op;
    if (a.kind == Atom::Kind::kIdent && full_schema.has(a.text)) {
      op.is_column = true;
      op.column = static_cast<std::uint32_t>(
          row_schema.index_of(a.text));  // throws if not bound yet
    } else {
      op.value = Symbol::intern(a.text);
    }
    operands.push_back(op);
    return static_cast<std::uint32_t>(operands.size() - 1);
  }

  std::uint32_t emit(bc::Insn in) const {
    insns.push_back(in);
    return static_cast<std::uint32_t>(insns.size() - 1);
  }

  /// Appends the subtree of `e` in postfix order; returns its root index.
  // NOLINTNEXTLINE(misc-no-recursion)
  std::uint32_t build(const Expr& e) const {
    bc::Insn in;
    switch (e.op()) {
      case Expr::Op::kBool:
        in.op = bc::Op::kConst;
        in.imm = e.bool_value();
        return emit(in);
      case Expr::Op::kCompare:
        in.op = bc::Op::kCmp;
        in.negated = e.negated();
        in.a = operand(e.atoms()[0]);
        in.b = operand(e.atoms()[1]);
        return emit(in);
      case Expr::Op::kIn: {
        in.op = bc::Op::kIn;
        in.negated = e.negated();
        in.a = operand(e.atoms()[0]);
        in.args = static_cast<std::uint32_t>(operands.size());
        in.argc = static_cast<std::uint32_t>(e.atoms().size() - 1);
        for (std::size_t i = 1; i < e.atoms().size(); ++i) {
          operand(e.atoms()[i]);
        }
        return emit(in);
      }
      case Expr::Op::kCall: {
        if (functions == nullptr || !functions->has(e.callee())) {
          throw BindError("unknown function: " + e.callee());
        }
        in.op = bc::Op::kCall;
        in.fn = functions->find(e.callee());
        in.args = static_cast<std::uint32_t>(operands.size());
        in.argc = static_cast<std::uint32_t>(e.atoms().size());
        for (const Atom& a : e.atoms()) operand(a);
        return emit(in);
      }
      case Expr::Op::kAnd:
      case Expr::Op::kOr:
      case Expr::Op::kNot:
      case Expr::Op::kTernary: {
        std::vector<std::uint32_t> child_roots;
        child_roots.reserve(e.children().size());
        for (const Expr& c : e.children()) child_roots.push_back(build(c));
        switch (e.op()) {
          case Expr::Op::kAnd:
            in.op = bc::Op::kAnd;
            break;
          case Expr::Op::kOr:
            in.op = bc::Op::kOr;
            break;
          case Expr::Op::kNot:
            in.op = bc::Op::kNot;
            break;
          default:
            in.op = bc::Op::kTernary;
            break;
        }
        in.args = static_cast<std::uint32_t>(roots.size());
        in.argc = static_cast<std::uint32_t>(child_roots.size());
        roots.insert(roots.end(), child_roots.begin(), child_roots.end());
        return emit(in);
      }
    }
    throw BindError("unreachable expression op");
  }
};

}  // namespace

bc::Program compile_bytecode(const Expr& expr, const Schema& row_schema,
                             const Schema& full_schema,
                             const FunctionRegistry* functions) {
  bc::Program out;
  BcCompiler c{row_schema, full_schema, functions, out,
               out.insns_,  out.operands_, out.roots_};
  (void)c.build(expr);
  std::vector<std::uint32_t> seen;
  for (const bc::Operand& op : out.operands_) {
    if (op.is_column &&
        std::find(seen.begin(), seen.end(), op.column) == seen.end()) {
      seen.push_back(op.column);
    }
  }
  out.columns_read_ = seen.size();
  CCSQL_COUNT("bytecode.programs_compiled", 1);
  return out;
}

}  // namespace ccsql
