// Golden output for the VCG deadlock analysis on the three ASURA channel
// assignments: every protocol dependency row in order — its eight symbols,
// placement, composed / ignored_message flags and provenance text — the
// controller rows likewise, and the rendered report.  Rows are pinned as the
// FNV-1a hash of their rendering, with the first row in clear so a mismatch
// shows what the rendering is; the report is pinned verbatim.  Recorded
// when the analysis still deduplicated on rendered row text, so it checks
// that the symbol-id keys keep the same rows in the same order.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "checks/vcg.hpp"
#include "protocol/asura/asura.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

std::string render(const DependencyRow& r) {
  std::string out;
  for (Value v : {r.m1, r.s1, r.d1, r.v1, r.m2, r.s2, r.d2, r.v2}) {
    out += v.str();
    out += ',';
  }
  out += to_string(r.placement);
  out += r.composed ? ",composed" : ",controller";
  out += r.ignored_message ? ",ignoring" : ",exact";
  out += ',';
  out += r.origin;
  return out;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

std::uint64_t rows_fnv(const std::vector<DependencyRow>& rows) {
  std::string text;
  for (const DependencyRow& r : rows) {
    text += render(r);
    text += '\n';
  }
  return fnv1a(text);
}

struct Golden {
  const char* assignment;
  std::size_t controller_rows;
  std::uint64_t controller_fnv;
  std::size_t protocol_rows;
  std::uint64_t rows_fnv;
  const char* first_row;
  const char* report;
};

void check(const Golden& g) {
  std::vector<ControllerTableRef> refs;
  for (const auto& c : spec().controllers()) {
    refs.push_back(
        ControllerTableRef::from_spec(*c, spec().database().get(c->name())));
  }
  DeadlockAnalysis analysis(refs, spec().assignment(g.assignment));
  EXPECT_EQ(analysis.controller_rows().size(), g.controller_rows);
  EXPECT_EQ(rows_fnv(analysis.controller_rows()), g.controller_fnv);
  ASSERT_EQ(analysis.protocol_rows().size(), g.protocol_rows);
  EXPECT_EQ(render(analysis.protocol_rows().front()), g.first_row);
  EXPECT_EQ(rows_fnv(analysis.protocol_rows()), g.rows_fnv);
  EXPECT_EQ(analysis.report(), g.report);
}

TEST(VcgGolden, V4) {
  check({asura::kAssignV4, 235, 0xb9aefd45bc7f519aull, 301,
         0xb4dd5c3cc12c1970ull,
         "read,local,home,VC0,mread,home,home,VC0,L!=H!=R,controller,exact,"
         "D#0 [L!=H!=R]",
         "protocol dependency table: 301 rows (235 from controllers)\n"
         "VCG edges: VC0->VC0 VC0->VC1 VC0->VC3 VC2->VC3 VC2->VC0 VC0->VC2 "
         "VC2->VC2 VC2->VC1\n"
         "3 cycle(s) found:\n"
         "cycle: VC0 -> VC0\n"
         "  (read, local, home, VC0) -> (mread, home, home, VC0)  "
         "[D#0 [L!=H!=R]]\n"
         "cycle: VC0 VC2 -> VC0\n"
         "  (mread, home, home, VC0) -> (data, home, home, VC2)  "
         "[M#0 [L!=H!=R]]\n"
         "  (idone, remote, home, VC2) -> (mread, home, home, VC0)  "
         "[D#307 [L!=H!=R]]\n"
         "cycle: VC2 -> VC2\n"
         "  (idone, remote, home, VC2) -> (data, home, home, VC2)  "
         "[compose(D#307 [L!=H!=R] ; M#0 [L!=H!=R])]\n"});
}

TEST(VcgGolden, V5) {
  check({asura::kAssignV5, 235, 0x5ae4b75bf983dab2ull, 198,
         0x2a282ae63916cdf4ull,
         "read,local,home,VC0,mread,home,home,VC4,L!=H!=R,controller,exact,"
         "D#0 [L!=H!=R]",
         "protocol dependency table: 198 rows (235 from controllers)\n"
         "VCG edges: VC0->VC4 VC0->VC1 VC0->VC3 VC2->VC3 VC2->VC4 VC4->VC2 "
         "VC0->VC2 VC2->VC2 VC4->VC3 VC4->VC4\n"
         "3 cycle(s) found:\n"
         "cycle: VC4 VC2 -> VC4\n"
         "  (mread, home, home, VC4) -> (data, home, home, VC2)  "
         "[M#0 [L!=H!=R]]\n"
         "  (idone, remote, home, VC2) -> (mread, home, home, VC4)  "
         "[D#307 [L!=H!=R]]\n"
         "cycle: VC4 -> VC4\n"
         "  (mread, home, home, VC4) -> (mread, home, home, VC4)  "
         "[compose(M#0 [L=H=R] ; D#307 [L=H=R]) ignoring message]\n"
         "cycle: VC2 -> VC2\n"
         "  (idone, remote, home, VC2) -> (data, home, home, VC2)  "
         "[compose(D#307 [L!=H!=R] ; M#0 [L!=H!=R])]\n"});
}

TEST(VcgGolden, V5fix) {
  check({asura::kAssignV5Fix, 155, 0x3386751e84dfa645ull, 95,
         0x33016ccc0d5c3262ull,
         "read,local,home,VC0,sfetch,home,remote,VC1,L!=H!=R,controller,"
         "exact,D#2 [L!=H!=R]",
         "protocol dependency table: 95 rows (155 from controllers)\n"
         "VCG edges: VC0->VC1 VC0->VC3 VC2->VC3\n"
         "no cycles: assignment is deadlock-free\n"});
}

}  // namespace
}  // namespace ccsql
