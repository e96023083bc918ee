#pragma once

#include <string>
#include <utility>
#include <vector>

#include "relational/function_registry.hpp"
#include "relational/table.hpp"
#include "solver/generator.hpp"

namespace ccsql {

/// Declares that three columns of a controller table together describe one
/// message port: the message type, its source role, and its destination
/// role.  The deadlock analysis (section 4.1) adds one virtual-channel
/// column per triple.
struct MessageTriple {
  std::string msg;   // message-type column, e.g. "inmsg" / "remmsg"
  std::string src;   // source-role column, e.g. "inmsgsrc"
  std::string dst;   // destination-role column
  bool is_input = false;
};

/// The simulator's reading of a controller's rows as guarded actions
/// (DESIGN.md §15).  `key` names the guard columns, the input message
/// column first.  `sets` pairs an output column with the guard column whose
/// state it overwrites (nxtdirst -> dirst); `counts` pairs an output column
/// with the guard column that encodes the counter its inc/dec/repl/drepl
/// op updates (nxtdirpv -> dirpv).  Every output MessageTriple is a send.
/// A controller with no key is not simulated.
struct SimReading {
  std::vector<std::string> key{};
  std::vector<std::pair<std::string, std::string>> sets{};
  std::vector<std::pair<std::string, std::string>> counts{};
};

/// The database input for one controller (paper, section 3): the table
/// schema, the column tables (domains) and the column constraints.  Calling
/// generate() runs the constraint solver and yields the controller table.
///
/// The spec additionally records which column triples are message ports so
/// analyses can interpret the table without protocol-specific knowledge.
class ControllerSpec {
 public:
  ControllerSpec() = default;
  explicit ControllerSpec(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Appends a column with its domain.  Columns are generated in insertion
  /// order, so put inputs first (the paper's incremental strategy).
  void add_column(Column column, Domain domain);
  void add_input(const std::string& name, std::vector<std::string> values);
  void add_output(const std::string& name, std::vector<std::string> values);

  /// Attaches constraint text to a column (see ColumnConstraint).  Multiple
  /// constraints per column are allowed and conjoined.
  void constrain(const std::string& column, std::string_view text);
  /// Attaches an already-parsed constraint to a column.
  void constrain(const std::string& column, Expr expr);

  /// Declares a message port.
  void add_message_triple(MessageTriple triple);

  [[nodiscard]] const std::vector<MessageTriple>& message_triples()
      const noexcept {
    return triples_;
  }
  [[nodiscard]] const MessageTriple* input_triple() const;
  [[nodiscard]] std::vector<MessageTriple> output_triples() const;

  /// Declares how the simulator executes this controller's rows.
  void simulate(SimReading reading) { sim_ = std::move(reading); }
  [[nodiscard]] const SimReading& sim() const noexcept { return sim_; }

  [[nodiscard]] const SchemaPtr& schema() const;
  [[nodiscard]] const std::vector<Domain>& domains() const noexcept {
    return input_.domains;
  }
  [[nodiscard]] const std::vector<ColumnConstraint>& constraints()
      const noexcept {
    return input_.constraints;
  }

  /// Builds the GenerationInput (schema is finalized on first call).
  [[nodiscard]] const GenerationInput& generation_input(
      const FunctionRegistry* functions) const;

  /// Solves the constraints and returns the controller table.  The result is
  /// cached; pass `trace` to observe per-column pruning on a fresh solve.
  [[nodiscard]] const Table& generate(const FunctionRegistry* functions,
                                      IncrementalTrace* trace = nullptr) const;

  /// Drops the cached table (e.g. after mutating constraints in tests).
  void invalidate() const;

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::vector<MessageTriple> triples_;
  SimReading sim_;
  mutable GenerationInput input_;
  mutable bool generated_ = false;
  mutable Table table_;
};

}  // namespace ccsql
