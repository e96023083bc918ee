// Golden-file regression: the read-exclusive transaction slice of the
// directory controller (the paper's Figure 3 plus our grant-ack tail) is
// pinned to a committed CSV.  Any change to those rows — intended or not —
// shows up as a diff of this file, which is exactly how the paper's teams
// reviewed table revisions.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "protocol/asura/asura.hpp"
#include "relational/format.hpp"

namespace ccsql {
namespace {

const char* kGoldenPath = CCSQL_GOLDEN_DIR "/readex_transaction.csv";

Table current_slice() {
  static const std::unique_ptr<ProtocolSpec> spec = asura::make_asura();
  Database cat;
  cat.put("D", spec->database().get(asura::kDirectory));
  cat.functions() = spec->database().functions();
  return cat.query(
      "select inmsg, dirst, dirlookup, dirpv, bdirst, bdirpv, locmsg, "
      "remmsg, memmsg, nxtdirst, nxtdirpv, nxtbdirst, nxtbdirpv, bdirop, "
      "datapath, cmpl from D where inmsg in (readex, gdone, data, idone) "
      "and bdirst in (I, Busy-rx-sd, Busy-rx-s, Busy-rx-d, Busy-rx-si, "
      "Busy-rx-g) "
      "order by inmsg, dirst, dirpv, bdirst, bdirpv").rows;
}

TEST(Golden, ReadexTransactionSliceMatchesPinnedCsv) {
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath;
  std::stringstream buffer;
  buffer << in.rdbuf();
  Table expected = from_csv(buffer.str());
  Table actual = current_slice();
  EXPECT_EQ(actual.row_count(), expected.row_count());
  EXPECT_TRUE(actual.with_schema(expected.schema_ptr()).set_equal(expected))
      << "readex transaction rows changed; if intended, regenerate the "
         "golden file:\n"
      << to_csv(actual);
}

TEST(Golden, SliceCoversTheFigure3Chain) {
  Database cat;
  cat.put("S", current_slice());
  // The three Figure 3 hops are all present in the pinned slice.
  EXPECT_EQ(cat.query("select * from S where inmsg = \"data\" and "
                      "bdirst = \"Busy-rx-sd\" and "
                      "nxtbdirst = \"Busy-rx-s\"")
                .row_count(),
            2u);
  EXPECT_EQ(cat.query("select * from S where inmsg = idone and "
                      "bdirpv = one and bdirst = \"Busy-rx-sd\" and "
                      "nxtbdirst = \"Busy-rx-d\"")
                .row_count(),
            1u);
  EXPECT_EQ(cat.query("select * from S where inmsg = gdone and "
                      "nxtdirst = \"MESI\"")
                .row_count(),
            1u);
}

}  // namespace
}  // namespace ccsql
