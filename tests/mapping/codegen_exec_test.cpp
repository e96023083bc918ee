// The strongest section 5 check: the code emitted from an implementation
// table is compiled with the system compiler and executed; the generated
// program replays every table row as a test vector.  This verifies the
// emitted controller logic itself, not just the tables it came from.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "mapping/asura_map.hpp"
#include "mapping/codegen.hpp"
#include "protocol/asura/asura.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

int compile_and_run(const std::string& program, const std::string& name) {
  const std::string src = name + "_selfcheck.cpp";
  const std::string bin = "./" + name + "_selfcheck";
  std::ofstream(src) << program;
  const std::string compile = "c++ -std=c++17 -O0 -o " + bin + " " + src;
  if (std::system(compile.c_str()) != 0) return -1;
  const int status = std::system(bin.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
}

TEST(CodegenExec, GeneratedControllerReproducesItsTable) {
  ControllerSpec ed_spec = mapping::make_extended_directory(spec());
  const Table ed = ed_spec.generate(&spec().database().functions());
  auto parts =
      mapping::partition_directory(ed, spec().database().functions());
  for (const auto& p : parts) {
    if (p.name != "Response_bdir" && p.name != "Response_locmsg") continue;
    std::string program =
        mapping::generate_selfcheck_program(p.table, p.name);
    EXPECT_EQ(compile_and_run(program, p.name), 0) << p.name;
  }
}

TEST(CodegenExec, CorruptedTableFailsItsOwnVectors) {
  // Flip one output cell after generating the vectors: the emitted logic
  // (from the corrupted table) no longer matches the vectors we built from
  // the original — build the program from the original table but emit the
  // logic from the corrupted one by splicing: simpler and equivalent, we
  // corrupt the table first and check the program STILL verifies (it is
  // self-consistent), then corrupt a vector by hand.
  Table t(make_schema({{"a", ColumnKind::kInput},
                       {"x", ColumnKind::kOutput}}));
  t.append({V("p"), V("r1")});
  t.append({V("q"), V("r2")});
  std::string program = mapping::generate_selfcheck_program(t, "Tiny");
  ASSERT_EQ(compile_and_run(program, "Tiny_ok"), 0);
  // Tamper with one expected vector: the run must now fail.
  auto pos = program.find("{kR2, false}");
  ASSERT_NE(pos, std::string::npos);
  program.replace(pos, 12, "{kR1, false}");
  EXPECT_EQ(compile_and_run(program, "Tiny_bad"), 1);
}

TEST(CodegenExec, SelfcheckProgramShape) {
  Table t(make_schema({{"a", ColumnKind::kInput},
                       {"x", ColumnKind::kOutput}}));
  t.append({V("p"), null_value()});  // no-op output row
  std::string program = mapping::generate_selfcheck_program(t, "U");
  EXPECT_NE(program.find("struct Inputs"), std::string::npos);
  EXPECT_NE(program.find("struct Outputs"), std::string::npos);
  EXPECT_NE(program.find("void U_step"), std::string::npos);
  EXPECT_NE(program.find("int main()"), std::string::npos);
  // The no-op output is encoded as kNull in the vector and checked to be
  // left untouched (kUnset) by the generated code.
  EXPECT_NE(program.find("kNull ? got.x == kUnset"), std::string::npos);
}

}  // namespace
}  // namespace ccsql
