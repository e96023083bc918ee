#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/function_registry.hpp"
#include "relational/table.hpp"
#include "relational/value.hpp"

namespace ccsql {

/// Classification of protocol messages (paper, section 2): every message is
/// either a request or a response; virtual-channel assignment and several
/// invariants depend on the class.
enum class MessageClass { kRequest, kResponse };

std::string_view to_string(MessageClass c) noexcept;

/// One protocol message type.
struct MessageDef {
  std::string name;
  MessageClass cls = MessageClass::kRequest;
  std::string description;
};

/// The protocol's message vocabulary (~50 messages in ASURA).  Also provides
/// the classification predicates (`isrequest`, `isresponse`) that constraint
/// and invariant text uses, and renders itself as a database table for
/// SQL-level inspection (Figure 1 of the paper).
class MessageCatalog {
 public:
  /// Registers a message; throws Error on duplicates.
  void add(std::string name, MessageClass cls, std::string description = "");

  [[nodiscard]] bool has(Value name) const;
  [[nodiscard]] bool is_request(Value name) const;
  [[nodiscard]] bool is_response(Value name) const;
  [[nodiscard]] std::optional<MessageClass> classify(Value name) const;
  [[nodiscard]] const std::vector<MessageDef>& all() const noexcept {
    return messages_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return messages_.size(); }

  /// Names of all messages (optionally filtered by class).
  [[nodiscard]] std::vector<std::string> names(
      std::optional<MessageClass> cls = std::nullopt) const;

  /// Registers `isrequest` / `isresponse` predicates over the messages added
  /// so far.  The predicates hold their own copy of the classification, so
  /// the registry may outlive this catalog.
  void install(FunctionRegistry& registry) const;

  /// The catalog as a table (name, class, description) — Figure 1.
  [[nodiscard]] Table to_table() const;

 private:
  std::vector<MessageDef> messages_;
  // Interned-name index; classification runs per candidate row during table
  // generation, so lookups must be O(1).
  std::unordered_map<Value, MessageClass> index_;
};

}  // namespace ccsql
