#pragma once

#include <memory>
#include <string>
#include <vector>

#include "protocol/channel_assignment.hpp"
#include "protocol/controller_spec.hpp"
#include "protocol/message.hpp"
#include "relational/database.hpp"

namespace ccsql {

/// A protocol property written as SQL that must evaluate to the empty set
/// over the controller tables (paper, section 4.3).
struct NamedInvariant {
  std::string name;
  std::string description;
  std::string sql;  // parse_invariant() syntax
};

/// The complete database input for a protocol (paper: "table schema + SQL
/// constraints + static checks"): the message vocabulary, one ControllerSpec
/// per controller, the invariant suite, and one or more candidate virtual
/// channel assignments.
///
/// ProtocolSpec owns the generated tables (database()), so it is
/// non-copyable; pass by reference or unique_ptr.
class ProtocolSpec {
 public:
  explicit ProtocolSpec(std::string name);
  ProtocolSpec(const ProtocolSpec&) = delete;
  ProtocolSpec& operator=(const ProtocolSpec&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] MessageCatalog& messages() noexcept { return messages_; }
  [[nodiscard]] const MessageCatalog& messages() const noexcept {
    return messages_;
  }

  /// Adds a controller and returns a reference for further configuration.
  ControllerSpec& add_controller(std::string name);

  [[nodiscard]] const std::vector<std::unique_ptr<ControllerSpec>>&
  controllers() const noexcept {
    return controllers_;
  }
  [[nodiscard]] const ControllerSpec& controller(std::string_view name) const;

  void add_invariant(NamedInvariant inv);
  [[nodiscard]] const std::vector<NamedInvariant>& invariants()
      const noexcept {
    return invariants_;
  }

  ChannelAssignment& add_assignment(std::string name);
  [[nodiscard]] const ChannelAssignment& assignment(
      std::string_view name) const;
  [[nodiscard]] const std::vector<std::unique_ptr<ChannelAssignment>>&
  assignments() const noexcept {
    return assignments_;
  }

  /// Solves every controller into a fresh database — one table per
  /// controller, named by the controller, plus the message catalog under
  /// "Messages", with the message predicates (isrequest / isresponse) in
  /// its function registry — and makes it database().  Returns each
  /// controller's solve time in microseconds, in controllers() order.
  /// Every call solves every controller.
  ///
  /// The new database replaces the old one: a `const Table&`, a
  /// ControllerTableRef or a CompiledTables taken from database() before
  /// this call dangles after it.  A copy of the Database (or a Snapshot)
  /// keeps the old tables alive.
  std::vector<double> regenerate() const;

  /// The generated tables: regenerate()'s database, built on first use.
  /// The session carries the process-default jobs setting; callers needing
  /// a different one copy the Database (cheap relative to generation) and
  /// override.
  [[nodiscard]] const Database& database() const;

 private:
  std::string name_;
  MessageCatalog messages_;
  std::vector<std::unique_ptr<ControllerSpec>> controllers_;
  std::vector<NamedInvariant> invariants_;
  std::vector<std::unique_ptr<ChannelAssignment>> assignments_;
  // Mutable: regenerate() replaces it.
  mutable Database db_;
};

}  // namespace ccsql
