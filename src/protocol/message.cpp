#include "protocol/message.hpp"

#include <algorithm>
#include <memory>

#include "relational/error.hpp"

namespace ccsql {

std::string_view to_string(MessageClass c) noexcept {
  return c == MessageClass::kRequest ? "request" : "response";
}

void MessageCatalog::add(std::string name, MessageClass cls,
                         std::string description) {
  const Value v = Symbol::intern(name);
  if (!index_.emplace(v, cls).second) {
    throw Error("duplicate message: " + name);
  }
  messages_.push_back(
      MessageDef{std::move(name), cls, std::move(description)});
}

bool MessageCatalog::has(Value name) const {
  return index_.count(name) != 0;
}

std::optional<MessageClass> MessageCatalog::classify(Value name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

bool MessageCatalog::is_request(Value name) const {
  return classify(name) == MessageClass::kRequest;
}

bool MessageCatalog::is_response(Value name) const {
  return classify(name) == MessageClass::kResponse;
}

std::vector<std::string> MessageCatalog::names(
    std::optional<MessageClass> cls) const {
  std::vector<std::string> out;
  for (const auto& m : messages_) {
    if (!cls || m.cls == *cls) out.push_back(m.name);
  }
  return out;
}

void MessageCatalog::install(FunctionRegistry& registry) const {
  // The predicates own a frozen copy of the classification, so a registry
  // (and every database copy or snapshot sharing it) may outlive the catalog.
  const auto index =
      std::make_shared<const std::unordered_map<Value, MessageClass>>(index_);
  auto is = [index](MessageClass cls) {
    return [index, cls](Value v) {
      const auto it = index->find(v);
      return it != index->end() && it->second == cls;
    };
  };
  registry.add_unary("isrequest", is(MessageClass::kRequest));
  registry.add_unary("isresponse", is(MessageClass::kResponse));
}

Table MessageCatalog::to_table() const {
  Table t(Schema::of({"message", "class", "description"}));
  t.reserve_rows(messages_.size());
  for (const auto& m : messages_) {
    t.append({Symbol::intern(m.name), Symbol::intern(to_string(m.cls)),
              Symbol::intern(m.description)});
  }
  return t;
}

}  // namespace ccsql
