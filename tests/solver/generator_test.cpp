#include "solver/generator.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "relational/error.hpp"
#include "relational/format.hpp"
#include "relational/query.hpp"
#include "support/naive_solver.hpp"

namespace ccsql {
namespace {

/// A miniature directory-controller slice in the paper's style: two inputs
/// (inmsg, dirst) and two outputs (remmsg, nxtdirst).
GenerationInput mini_input() {
  GenerationInput in;
  in.schema = make_schema({{"inmsg", ColumnKind::kInput},
                           {"dirst", ColumnKind::kInput},
                           {"remmsg", ColumnKind::kOutput},
                           {"nxtdirst", ColumnKind::kOutput}});
  in.domains = {
      Domain("inmsg", std::vector<std::string>{"readex", "wb"}),
      Domain("dirst", std::vector<std::string>{"I", "SI", "MESI"}),
      Domain("remmsg", std::vector<std::string>{"NULL", "sinv"}),
      Domain("nxtdirst", std::vector<std::string>{"I", "Busy-sd", "Busy-d"}),
  };
  in.constraints = {
      // Legal input combinations: wb only arrives for a MESI line.
      ColumnConstraint::from_text(
          "dirst", "inmsg = wb ? dirst = MESI : dirst != MESI"),
      // Paper-style output constraint for remmsg.
      ColumnConstraint::from_text(
          "remmsg",
          "inmsg = readex and dirst = SI ? remmsg = sinv : remmsg = NULL"),
      // Next state.
      ColumnConstraint::from_text(
          "nxtdirst",
          "inmsg = readex ? "
          "(dirst = SI ? nxtdirst = \"Busy-sd\" : nxtdirst = \"Busy-d\") : "
          "nxtdirst = I"),
  };
  return in;
}

TEST(Generator, IncrementalProducesExpectedRows) {
  Table t = generate_incremental(mini_input());
  // Inputs surviving the dirst constraint: readex×{I,SI}, wb×{MESI} = 3.
  // Outputs are functionally determined, so 3 rows total.
  ASSERT_EQ(t.row_count(), 3u);
  Catalog cat;
  cat.put("T", t);
  EXPECT_EQ(cat.query("select * from T where inmsg = readex and dirst = SI "
                      "and remmsg = sinv and nxtdirst = \"Busy-sd\"")
                .row_count(),
            1u);
  EXPECT_EQ(cat.query("select * from T where inmsg = readex and dirst = I "
                      "and remmsg = NULL and nxtdirst = \"Busy-d\"")
                .row_count(),
            1u);
  EXPECT_EQ(cat.query("select * from T where inmsg = wb and dirst = MESI "
                      "and remmsg = NULL and nxtdirst = I")
                .row_count(),
            1u);
}

TEST(Generator, MonolithicMatchesIncremental) {
  GenerationInput in = mini_input();
  Table inc = generate_incremental(in);
  Table mono = naive::generate_monolithic(in);
  EXPECT_TRUE(inc.set_equal(mono));
}

TEST(Generator, TraceRecordsPruning) {
  GenerationInput in = mini_input();
  IncrementalTrace trace;
  Table t = generate_incremental(in, &trace);
  ASSERT_EQ(trace.steps.size(), 4u);
  EXPECT_EQ(trace.steps[0].column, "inmsg");
  // After inmsg: 2 rows, no constraint applicable yet.
  EXPECT_EQ(trace.steps[0].rows_after, 2u);
  // After dirst: 6 crossed, pruned to 3 by the dirst constraint.
  EXPECT_EQ(trace.steps[1].rows_before_filter, 6u);
  EXPECT_EQ(trace.steps[1].rows_after, 3u);
  ASSERT_EQ(trace.steps[1].constraints_applied.size(), 1u);
  EXPECT_EQ(trace.steps[1].constraints_applied[0], "dirst");
  // Final row count matches the generated table.
  EXPECT_EQ(trace.steps.back().rows_after, t.row_count());
}

TEST(Generator, GuardedStepsBuildOnlyTheirCandidates) {
  IncrementalTrace trace;
  (void)generate_incremental(mini_input(), &trace);
  ASSERT_EQ(trace.steps.size(), 4u);
  // No constraint: the product is the step's work.
  EXPECT_EQ(trace.steps[0].candidates, 2u);
  // dirst: the wb row is keyed to MESI alone; the readex row's leaf
  // (dirst != MESI) takes all three values and filters them.
  EXPECT_EQ(trace.steps[1].rows_before_filter, 6u);
  EXPECT_EQ(trace.steps[1].candidates, 4u);
  // remmsg and nxtdirst are guarded assignments: one candidate per prefix
  // row, whatever the domain size.
  EXPECT_EQ(trace.steps[2].rows_before_filter, 6u);
  EXPECT_EQ(trace.steps[2].candidates, 3u);
  EXPECT_EQ(trace.steps[3].rows_before_filter, 9u);
  EXPECT_EQ(trace.steps[3].candidates, 3u);
  EXPECT_EQ(trace.steps[3].rows_after, 3u);
}

TEST(Generator, UnconstrainedColumnsGiveFullCross) {
  GenerationInput in;
  in.schema = Schema::of({"a", "b"});
  in.domains = {Domain("a", std::vector<std::string>{"1", "2"}),
                Domain("b", std::vector<std::string>{"x", "y", "z"})};
  Table t = generate_incremental(in);
  EXPECT_EQ(t.row_count(), 6u);
  EXPECT_EQ(naive::cross_cardinality(in), 6u);
  EXPECT_TRUE(naive::generate_monolithic(in).set_equal(t));
}

TEST(Generator, InconsistentConstraintsYieldZeroRows) {
  GenerationInput in = mini_input();
  in.constraints.push_back(
      ColumnConstraint::from_text("inmsg", "inmsg = nosuchmsg"));
  Table t = generate_incremental(in);
  EXPECT_EQ(t.row_count(), 0u);
  EXPECT_EQ(first_emptying_column(in), "inmsg");
  EXPECT_EQ(naive::generate_monolithic(in).row_count(), 0u);
}

TEST(Generator, FirstEmptyingColumnEmptyWhenConsistent) {
  EXPECT_EQ(first_emptying_column(mini_input()), "");
}

TEST(Generator, ConstraintOnLaterColumnDeferredUntilBound) {
  // A constraint naming a later column must not be applied early.
  GenerationInput in;
  in.schema = Schema::of({"a", "b"});
  in.domains = {Domain("a", std::vector<std::string>{"1", "2"}),
                Domain("b", std::vector<std::string>{"1", "2"})};
  in.constraints = {ColumnConstraint::from_text("a", "a = b")};
  IncrementalTrace trace;
  Table t = generate_incremental(in, &trace);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_TRUE(trace.steps[0].constraints_applied.empty());
  EXPECT_EQ(trace.steps[1].constraints_applied.size(), 1u);
}

TEST(Generator, FunctionsAvailableInConstraints) {
  FunctionRegistry fns;
  fns.add_unary("isrequest", [](Value v) { return v == V("readex"); });
  GenerationInput in;
  in.schema = Schema::of({"m", "act"});
  in.domains = {Domain("m", std::vector<std::string>{"readex", "data"}),
                Domain("act", std::vector<std::string>{"queue", "drop"})};
  in.constraints = {ColumnConstraint::from_text(
      "act", "isrequest(m) ? act = queue : act = drop")};
  in.functions = &fns;
  Table t = generate_incremental(in);
  ASSERT_EQ(t.row_count(), 2u);
  Catalog cat;
  cat.put("T", t);
  EXPECT_EQ(
      cat.query("select * from T where m = readex and act = queue")
          .row_count(),
      1u);
  EXPECT_TRUE(naive::generate_monolithic(in).set_equal(t));
}

TEST(Generator, ValidateRejectsBadInputs) {
  GenerationInput in = mini_input();
  in.domains.pop_back();
  EXPECT_THROW(in.validate(), SchemaError);

  GenerationInput in2 = mini_input();
  in2.domains[0] = Domain("bogus", std::vector<std::string>{"x"});
  EXPECT_THROW(in2.validate(), Error);

  GenerationInput in3 = mini_input();
  in3.constraints.push_back(ColumnConstraint::unconstrained("nope"));
  EXPECT_THROW(in3.validate(), BindError);

  GenerationInput in4 = mini_input();
  in4.domains[0] = Domain("inmsg", std::vector<std::string>{});
  EXPECT_THROW(in4.validate(), SchemaError);
}

TEST(Generator, CrossCardinalitySaturates) {
  GenerationInput in;
  std::vector<Column> cols;
  for (int i = 0; i < 40; ++i) {
    std::string name = std::string("c").append(std::to_string(i));
    cols.push_back({name, ColumnKind::kInput});
    std::vector<std::string> vals;
    for (int v = 0; v < 10; ++v) vals.push_back(std::to_string(v));
    in.domains.emplace_back(name, vals);
  }
  in.schema = make_schema(cols);
  EXPECT_EQ(naive::cross_cardinality(in),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Generator, PaperDirpvConstraintShape) {
  // The paper's dirpv constraint:
  //   inmsg = "data" and dirst = "Busy-d" ? dirpv = zero : dirpv = one
  GenerationInput in;
  in.schema = Schema::of({"inmsg", "dirst", "dirpv"});
  in.domains = {
      Domain("inmsg", std::vector<std::string>{"data", "idone"}),
      Domain("dirst", std::vector<std::string>{"Busy-d", "Busy-s"}),
      Domain("dirpv", std::vector<std::string>{"zero", "one", "gone"}),
  };
  in.constraints = {ColumnConstraint::from_text(
      "dirpv",
      "inmsg = \"data\" and dirst = \"Busy-d\" ? dirpv = zero : "
      "dirpv = one")};
  Table t = generate_incremental(in);
  // 4 input combos, dirpv functionally determined -> 4 rows.
  ASSERT_EQ(t.row_count(), 4u);
  Catalog cat;
  cat.put("T", t);
  EXPECT_EQ(cat.query("select * from T where dirpv = gone").row_count(), 0u);
  EXPECT_EQ(cat.query("select * from T where inmsg = \"data\" and "
                      "dirst = \"Busy-d\" and dirpv = zero")
                .row_count(),
            1u);
  EXPECT_EQ(cat.query("select * from T where dirpv = one").row_count(), 3u);
}

}  // namespace
}  // namespace ccsql
