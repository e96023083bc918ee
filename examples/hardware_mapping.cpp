// The section 5 hardware-mapping flow for the directory controller:
//   1. Extend D with implementation detail (Qstatus, Dqstatus, Fdback and
//      the implementation-defined Dfdback request) to produce ED.
//   2. Partition ED into the nine implementation tables by SQL.
//   3. Verify the mapping: rebuild ED from the parts and recover D.
//   4. Emit controller code from an implementation table ("SQL report
//      generation").
//
// Build & run:  ./build/examples/hardware_mapping
#include <iostream>

#include "mapping/asura_map.hpp"
#include "mapping/codegen.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/database.hpp"
#include "relational/format.hpp"

using namespace ccsql;

int main() {
  auto spec = asura::make_asura();
  const Table& d = spec->database().get(asura::kDirectory);

  ControllerSpec ed_spec = mapping::make_extended_directory(*spec);
  const Table ed = ed_spec.generate(&spec->database().functions());
  std::cout << "D:  " << d.row_count() << " rows x " << d.column_count()
            << " cols\n";
  std::cout << "ED: " << ed.row_count() << " rows x " << ed.column_count()
            << " cols (adds Qstatus, Dqstatus, Fdback, Dfdback)\n\n";

  Database cat;
  cat.put("ED", ed);
  cat.functions() = spec->database().functions();
  std::cout << "Sample of the implementation behaviour (full output queues "
               "retry a request):\n"
            << to_ascii(cat.query("select inmsg, dirst, Qstatus, locmsg, "
                                  "memmsg, cmpl from ED where inmsg = readex "
                                  "and Qstatus = Full")
                            .rows,
                        6)
            << "\n";
  std::cout << "Deferred directory updates ship as Dfdback:\n"
            << to_ascii(cat.query("select inmsg, bdirst, Dqstatus, dirupd, "
                                  "Fdback from ED where Fdback = Dfdback")
                            .rows,
                        6)
            << "\n";

  auto parts = mapping::partition_directory(ed, spec->database().functions());
  std::cout << "Nine implementation tables (one per output of the request "
               "and response controllers):\n";
  for (const auto& p : parts) {
    std::cout << "  " << p.name << ": " << p.table.row_count() << " rows x "
              << p.table.column_count() << " cols\n";
  }

  auto report = mapping::verify_directory_mapping(*spec);
  std::cout << "\nmapping verification: ED reconstructed="
            << report.ed_reconstructed
            << " base recovered=" << report.base_recovered
            << " contains debugged table=" << report.contains_debugged
            << "\n\n";

  // Code generation from the smallest implementation table.
  for (const auto& p : parts) {
    if (p.name != "Response_bdir") continue;
    std::cout << "=== generated code for " << p.name << " (first lines) ===\n";
    std::string code = mapping::generate_code(p.table, p.name);
    std::cout << code.substr(0, 1200) << "...\n";
  }
  return 0;
}
