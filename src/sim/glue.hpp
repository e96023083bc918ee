#pragma once

// Protocol glue for the generic simulator step (DESIGN.md §15).
//
// Machine::step reads a controller row as a guarded action: the key
// columns are the guard, each output MessageTriple is a send whose type
// and roles come from the row, and the spec's declared set and count
// columns update the state their guard columns read.  What no table says —
// deriving guard values, resolving roles to quads, where state lives, data
// versions, the synchronous snoop exchange — is the spec's Glue, compiled
// once with the tables and shared read-only.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/dispatch.hpp"
#include "sim/network.hpp"
#include "sim/types.hpp"

namespace ccsql::sim {

class Machine;

/// One controller step in flight: the consumed message, the guard, the
/// fired row and the planned sends, plus what the glue notes while
/// planning for apply() to read back.
struct Step {
  struct Out {
    SimMessage msg;
    bool outbox = false;  // leaves through the node's outbox, unchecked
    Network::VcCode code = 0;  // resolved by the stall check
  };
  std::size_t ctl = 0;  // index into CompiledTables::ctl
  QuadId q = 0;
  SimMessage in;
  static constexpr std::size_t kMaxKey = 8;
  std::array<Value, kMaxKey> key{};
  std::size_t row = 0;
  std::vector<Out> out;

  QuadId requester = -1;      // the quad the local role names
  std::uint64_t holders = 0;  // the quads the remote role names (pv bits)
  std::int64_t version = -1;  // the data version the step carries
  Value cmd;                  // a synchronous command applied with the step
  bool busy = false, dirty = false, pending_wb = false;
};

/// The per-spec hook; DESIGN.md §15 lists its duties.  An implementation
/// G instantiates the generic step (sim/step.hpp) with itself — step() and
/// the synchronous fire_as() — and provides the hooks it calls in order:
///
///   bool guard(Machine&, Step&) const — fills the guard's state columns
///     s.key[1..]; false when the controller cannot step now (nothing is
///     looked up or consumed);
///   bool plan(Machine&, Step&, std::span<const Send>) const — plans the
///     row's sends into s.out, resolving each one's roles to quads, plus
///     any the row implies but does not list; false when a synchronous
///     exchange found no row (the step then consumes and ends);
///   void apply(Machine&, Step&, std::span<const Update> sets,
///              std::span<const Update> counts) const — once every
///     planned send fits and the message is consumed: writes the row's
///     sets and counts into the state their guard columns read, then the
///     effects no column names.
class Glue {
 public:
  using Send = ControllerDispatch::Send;
  using Update = ControllerDispatch::Update;
  virtual ~Glue() = default;
  /// Machine::step: Machine::step_as with this glue.
  virtual bool step(Machine& m, std::size_t c, QuadId q,
                    const Network::QueueRef* ref,
                    const SimMessage& msg) const = 0;
  /// The controller for a message no input triple takes verbatim, or -1.
  virtual int consumer(const Machine& m, QuadId q,
                       const SimMessage& msg) const = 0;
  /// Issues a processor or device operation; false when it completed
  /// locally without entering the protocol (a cache hit).
  virtual bool issue(Machine& m, QuadId q, Value op, Addr addr) const = 0;
};

/// The glue for `spec`, resolving its columns in `tables`; throws Error for
/// a protocol the simulator has no glue for.
std::unique_ptr<const Glue> make_glue(const ProtocolSpec& spec,
                                      CompiledTables& tables);

}  // namespace ccsql::sim
