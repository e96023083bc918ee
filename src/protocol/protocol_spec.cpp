#include "protocol/protocol_spec.hpp"

#include <chrono>

#include "relational/error.hpp"

namespace ccsql {

ProtocolSpec::ProtocolSpec(std::string name) : name_(std::move(name)) {}

ControllerSpec& ProtocolSpec::add_controller(std::string name) {
  controllers_.push_back(std::make_unique<ControllerSpec>(std::move(name)));
  return *controllers_.back();
}

const ControllerSpec& ProtocolSpec::controller(std::string_view name) const {
  for (const auto& c : controllers_) {
    if (c->name() == name) return *c;
  }
  throw BindError("unknown controller: " + std::string(name));
}

void ProtocolSpec::add_invariant(NamedInvariant inv) {
  invariants_.push_back(std::move(inv));
}

ChannelAssignment& ProtocolSpec::add_assignment(std::string name) {
  assignments_.push_back(std::make_unique<ChannelAssignment>(name));
  return *assignments_.back();
}

const ChannelAssignment& ProtocolSpec::assignment(
    std::string_view name) const {
  for (const auto& a : assignments_) {
    if (a->name() == name) return *a;
  }
  throw BindError("unknown channel assignment: " + std::string(name));
}

std::vector<double> ProtocolSpec::regenerate() const {
  Database db;
  FunctionRegistry& functions = db.functions();
  messages_.install(functions);
  std::vector<double> micros;
  for (const auto& c : controllers_) {
    const auto start = std::chrono::steady_clock::now();
    Table t = c->generate(&functions);
    micros.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    db.put(c->name(), std::move(t));
  }
  db.put("Messages", messages_.to_table());
  db_ = std::move(db);
  return micros;
}

const Database& ProtocolSpec::database() const {
  // A built database always holds "Messages": empty means never built.
  if (db_.tables().empty()) (void)regenerate();
  return db_;
}

}  // namespace ccsql
