#include "protocol/roles.hpp"

#include <gtest/gtest.h>

namespace ccsql {
namespace {

TEST(Roles, Constants) {
  EXPECT_EQ(roles::local().str(), "local");
  EXPECT_EQ(roles::home().str(), "home");
  EXPECT_EQ(roles::remote().str(), "remote");
  EXPECT_TRUE(roles::is_role(roles::home()));
  EXPECT_FALSE(roles::is_role(V("memory")));
  EXPECT_EQ(roles::all().size(), 3u);
}

TEST(Roles, CachedSymbolsEqualInterned) {
  EXPECT_EQ(roles::local(), Symbol::intern(roles::kLocal));
  EXPECT_EQ(roles::home(), Symbol::intern(roles::kHome));
  EXPECT_EQ(roles::remote(), Symbol::intern(roles::kRemote));
}

TEST(QuadPlacement, AllDistinctIsIdentity) {
  for (Value r : roles::all()) {
    EXPECT_EQ(place_role(QuadPlacement::kAllDistinct, r), r);
  }
}

TEST(QuadPlacement, AllSameCollapsesToHome) {
  EXPECT_EQ(place_role(QuadPlacement::kAllSame, roles::local()),
            roles::home());
  EXPECT_EQ(place_role(QuadPlacement::kAllSame, roles::remote()),
            roles::home());
  EXPECT_EQ(place_role(QuadPlacement::kAllSame, roles::home()),
            roles::home());
}

TEST(QuadPlacement, LocalHomeMergesLocal) {
  EXPECT_EQ(place_role(QuadPlacement::kLocalHome, roles::local()),
            roles::home());
  EXPECT_EQ(place_role(QuadPlacement::kLocalHome, roles::remote()),
            roles::remote());
}

TEST(QuadPlacement, HomeRemoteMergesRemote) {
  // The Figure 4 placement: L != H = R maps remote onto home.
  EXPECT_EQ(place_role(QuadPlacement::kHomeRemote, roles::remote()),
            roles::home());
  EXPECT_EQ(place_role(QuadPlacement::kHomeRemote, roles::local()),
            roles::local());
}

TEST(QuadPlacement, LocalRemoteMergesRemoteIntoLocal) {
  EXPECT_EQ(place_role(QuadPlacement::kLocalRemote, roles::remote()),
            roles::local());
  EXPECT_EQ(place_role(QuadPlacement::kLocalRemote, roles::home()),
            roles::home());
}

TEST(QuadPlacement, NonRolesPassThrough) {
  for (QuadPlacement p : kAllPlacements) {
    EXPECT_EQ(place_role(p, V("VC2")), V("VC2"));
    EXPECT_EQ(place_role(p, null_value()), null_value());
  }
}

TEST(QuadPlacement, PlacementIsIdempotent) {
  for (QuadPlacement p : kAllPlacements) {
    for (Value r : roles::all()) {
      EXPECT_EQ(place_role(p, place_role(p, r)), place_role(p, r));
    }
  }
}

TEST(QuadPlacement, ToStringDistinct) {
  std::set<std::string_view> names;
  for (QuadPlacement p : kAllPlacements) names.insert(to_string(p));
  EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace ccsql
