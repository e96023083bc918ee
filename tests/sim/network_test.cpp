#include "sim/network.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace ccsql::sim {
namespace {

SimMessage msg(const char* type, Addr a, QuadId s, QuadId d,
               const char* rs, const char* rd) {
  return SimMessage{V(type), a, s, d, V(rs), V(rd), -1};
}

ChannelAssignment assignment() {
  ChannelAssignment v("test");
  v.assign("readex", "local", "home", "VC0");
  v.assign("compl", "home", "local", "VC3");
  return v;
}

TEST(Network, SendAndReceive) {
  ChannelAssignment v = assignment();
  Network net(v, 2, 2);
  SimMessage m = msg("readex", 0, 0, 1, "local", "home");
  const Network::VcCode code = net.vc_code(m, 1);
  EXPECT_EQ(net.vc_value(code), V("VC0"));
  ASSERT_TRUE(net.has_room(m, code));
  net.send_coded(m, code);
  EXPECT_EQ(net.in_flight(), 1u);
  std::vector<Network::QueueRef> queues;
  net.queues_to(1, queues);
  ASSERT_EQ(queues.size(), 1u);
  EXPECT_EQ(queues[0].vc, V("VC0"));
  const SimMessage* front = net.front(queues[0]);
  ASSERT_NE(front, nullptr);
  EXPECT_EQ(front->type, V("readex"));
  net.pop(queues[0]);
  EXPECT_EQ(net.in_flight(), 0u);
  net.queues_to(1, queues);
  EXPECT_TRUE(queues.empty());
}

TEST(Network, CapacityBlocks) {
  ChannelAssignment v = assignment();
  Network net(v, 2, 1);
  SimMessage m = msg("readex", 0, 0, 1, "local", "home");
  net.send_coded(m, net.vc_code(m, 1));
  EXPECT_FALSE(net.has_room(m, net.vc_code(m, 1)));  // VC0 0->1 full
  // A different link is independent.
  SimMessage m2 = msg("readex", 1, 1, 0, "local", "home");
  EXPECT_TRUE(net.has_room(m2, net.vc_code(m2, 0)));
  // A different channel on the same link is independent.
  SimMessage m3 = msg("compl", 0, 0, 1, "home", "local");
  EXPECT_TRUE(net.has_room(m3, net.vc_code(m3, 1)));
}

TEST(Network, DedicatedPathNeverBlocks) {
  ChannelAssignment v = assignment();  // mread unassigned
  Network net(v, 2, 1);
  SimMessage m = msg("mread", 0, 1, 1, "home", "home");
  const Network::VcCode code = net.vc_code(m, 1);
  EXPECT_EQ(code, 0);  // the dedicated path
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(net.has_room(m, code));
    net.send_coded(m, code);
  }
  EXPECT_EQ(net.in_flight(), 10u);
  std::vector<Network::QueueRef> queues;
  net.queues_to(1, queues);
  ASSERT_EQ(queues.size(), 1u);
  EXPECT_TRUE(queues[0].vc.is_null());
}

TEST(Network, FifoOrderPerChannel) {
  ChannelAssignment v = assignment();
  Network net(v, 2, 4);
  SimMessage a = msg("readex", 1, 0, 1, "local", "home");
  SimMessage b = msg("readex", 2, 0, 1, "local", "home");
  net.send_coded(a, net.vc_code(a, 1));
  net.send_coded(b, net.vc_code(b, 1));
  std::vector<Network::QueueRef> queues;
  net.queues_to(1, queues);
  ASSERT_EQ(queues.size(), 1u);
  EXPECT_EQ(net.front(queues[0])->addr, 1);
  net.pop(queues[0]);
  EXPECT_EQ(net.front(queues[0])->addr, 2);
}

TEST(Network, DescribeBlockedListsOccupiedQueues) {
  ChannelAssignment v = assignment();
  Network net(v, 2, 1);
  const SimMessage m = msg("readex", 7, 0, 1, "local", "home");
  net.send_coded(m, net.vc_code(m, 1));
  std::string s = net.describe_blocked();
  EXPECT_NE(s.find("VC0"), std::string::npos);
  EXPECT_NE(s.find("readex(a7 0->1)"), std::string::npos);
}

}  // namespace
}  // namespace ccsql::sim
