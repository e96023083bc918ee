#pragma once

// The generic guarded-action step (DESIGN.md §15): a template over the
// spec's glue type, so the glue's hooks inline into it.

#include "sim/machine.hpp"

namespace ccsql::sim {

/// A step's frame on Machine::steps_ (steps nest inside glue effects).
struct Machine::Frame {
  Machine& m;
  Step& s;
  Frame(Machine& machine, std::size_t c, QuadId q, const SimMessage& msg)
      : m(machine), s(m.steps_.at(m.depth_++)) {
    s.ctl = c;
    s.q = q;
    s.in = msg;  // a copy: consume() frees the message's ring slot
    s.key[0] = msg.type;
    s.out.clear();
  }
  ~Frame() { --m.depth_; }
};

template <class G>
bool Machine::step_as(const G& glue, std::size_t c, QuadId q,
                      const Network::QueueRef* ref, const SimMessage& msg) {
  const ControllerDispatch& t = tables_->ctl[c];
  const Frame f(*this, c, q, msg);
  Step& s = f.s;
  if (!glue.guard(*this, s)) return false;
  const auto row = lookup(t, s.key.data());
  if (row) {
    s.row = *row;
  } else {
    missing_row(s);
  }
  // A missing row (or a missing exchange row) is an error, not a stall.
  if (!row || !glue.plan(*this, s, t.sends(s.row))) {
    if (ref != nullptr) consume(*ref);
    return true;
  }
  for (Step::Out& o : s.out) {
    if (o.outbox) continue;
    o.code = net_.vc_code(o.msg, q);
    if (!net_.has_room(o.msg, o.code)) {  // an output channel is full
      ++counters_.send_stalls;
      return false;
    }
  }
  if (ref != nullptr) consume(*ref);
  glue.apply(*this, s, t.sets(s.row), t.counts(s.row));
  for (const Step::Out& o : s.out) {
    if (o.outbox) {
      net_.push_outbox(q, o.msg);
    } else {
      post(o.msg, o.code);
    }
  }
  if (tracing()) trace_step(s);
  return true;
}

template <class G>
void Machine::fire_as(const G& glue, std::size_t c, QuadId q,
                      const SimMessage& msg) {
  const ControllerDispatch& t = tables_->ctl[c];
  const Frame f(*this, c, q, msg);
  if (!glue.guard(*this, f.s)) return;
  if (const auto row = lookup(t, f.s.key.data())) {
    f.s.row = *row;
    glue.apply(*this, f.s, t.sets(f.s.row), t.counts(f.s.row));
  } else {
    missing_row(f.s);
  }
}

}  // namespace ccsql::sim
