// Unit tests of the network adapter: packetization, injection order,
// reassembly and bookkeeping.
#include "noc/adapter.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace hybridic::noc {
namespace {

TEST(Adapter, PacketizesMessageIntoHeadBodyTail) {
  Adapter adapter{"a", 0, AdapterKind::kAccelerator, 256};
  adapter.enqueue_message(3, 1, Bytes{16});  // 4 payload flits
  std::vector<Flit> flits;
  while (adapter.has_pending()) {
    flits.push_back(adapter.consume_pending());
  }
  ASSERT_EQ(flits.size(), 5U);  // head + 4 payload
  EXPECT_EQ(flits[0].kind, FlitKind::kHead);
  EXPECT_EQ(flits[1].kind, FlitKind::kBody);
  EXPECT_EQ(flits[4].kind, FlitKind::kTail);
  for (const Flit& flit : flits) {
    EXPECT_EQ(flit.destination, 3U);
    EXPECT_EQ(flit.source, 0U);
    EXPECT_EQ(flit.message_id, 1U);
  }
}

TEST(Adapter, SplitsLargeMessagesIntoPackets) {
  Adapter adapter{"a", 0, AdapterKind::kAccelerator, 64};  // 16 flits max
  adapter.enqueue_message(1, 7, Bytes{200});  // 50 payload flits
  std::size_t heads = 0;
  std::size_t tails = 0;
  std::size_t total = 0;
  while (adapter.has_pending()) {
    const Flit flit = adapter.consume_pending();
    heads += flit.is_head() ? 1U : 0U;
    tails += flit.is_tail() ? 1U : 0U;
    ++total;
  }
  EXPECT_EQ(heads, 4U);  // ceil(200/64) packets
  EXPECT_EQ(tails, 4U);
  EXPECT_EQ(total, 50U + 4U);
  EXPECT_EQ(adapter.flits_injected(), total);
  EXPECT_EQ(adapter.messages_sent(), 1U);
}

TEST(Adapter, PacketIdsAreReservedInEnqueueOrder) {
  Adapter adapter{"a", 0, AdapterKind::kAccelerator, 64};  // 16 flits max
  adapter.enqueue_message(1, 7, Bytes{130});  // packets 1, 2, 3
  adapter.enqueue_message(2, 8, Bytes{0});    // packet 4
  adapter.resend_packet(1, 7, 2, 3);          // packet 2 again, 3 flits
  adapter.enqueue_message(3, 9, Bytes{4});    // packet 5
  struct Expected {
    std::uint64_t packet;
    std::uint64_t message;
    std::uint32_t destination;
    std::uint32_t flits;  // head + payload
  };
  const std::vector<Expected> expected = {
      {1, 7, 1, 17}, {2, 7, 1, 17}, {3, 7, 1, 2},
      {4, 8, 2, 1},  {2, 7, 1, 4},  {5, 9, 3, 2},
  };
  for (const Expected& packet : expected) {
    for (std::uint32_t seq = 0; seq < packet.flits; ++seq) {
      ASSERT_TRUE(adapter.has_pending());
      const Flit flit = adapter.consume_pending();
      EXPECT_EQ(flit.packet_id, packet.packet);
      EXPECT_EQ(flit.message_id, packet.message);
      EXPECT_EQ(flit.destination, packet.destination);
      EXPECT_EQ(flit.source, 0U);
      EXPECT_EQ(flit.sequence, seq);
      FlitKind kind = FlitKind::kBody;
      if (packet.flits == 1) {
        kind = FlitKind::kHeadTail;
      } else if (seq == 0) {
        kind = FlitKind::kHead;
      } else if (seq + 1 == packet.flits) {
        kind = FlitKind::kTail;
      }
      EXPECT_EQ(flit.kind, kind) << "packet " << packet.packet << " flit "
                                 << seq;
    }
  }
  EXPECT_FALSE(adapter.has_pending());
  EXPECT_EQ(adapter.flits_injected(), 17U + 17U + 2U + 1U + 4U + 2U);
}

TEST(Adapter, ZeroByteMessageIsHeadTailOnly) {
  Adapter adapter{"a", 0, AdapterKind::kLocalMemory, 256};
  adapter.enqueue_message(1, 2, Bytes{0});
  const Flit flit = adapter.consume_pending();
  EXPECT_EQ(flit.kind, FlitKind::kHeadTail);
  EXPECT_FALSE(adapter.has_pending());
}

TEST(Adapter, ReassemblyFiresOnLastPayloadFlit) {
  Adapter sink{"sink", 1, AdapterKind::kLocalMemory, 256};
  int fired = 0;
  Picoseconds at{0};
  sink.expect_message(9, Bytes{8},
                      [&](std::uint64_t id, Bytes bytes, Picoseconds t) {
                        EXPECT_EQ(id, 9U);
                        EXPECT_EQ(bytes.count(), 8U);
                        at = t;
                        ++fired;
                      });
  Flit head;
  head.message_id = 9;
  head.kind = FlitKind::kHead;
  sink.deliver(head, Picoseconds{10});
  EXPECT_EQ(fired, 0);
  Flit body = head;
  body.kind = FlitKind::kBody;
  sink.deliver(body, Picoseconds{20});
  EXPECT_EQ(fired, 0);
  Flit tail = head;
  tail.kind = FlitKind::kTail;
  sink.deliver(tail, Picoseconds{30});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(at.count(), 30U);
  EXPECT_EQ(sink.messages_received(), 1U);
  EXPECT_FALSE(sink.busy());
}

TEST(Adapter, UnknownMessageDeliveryAsserts) {
  Adapter sink{"sink", 1, AdapterKind::kLocalMemory, 256};
  Flit stray;
  stray.message_id = 42;
  EXPECT_THROW(sink.deliver(stray, Picoseconds{0}), SimulationError);
}

TEST(Adapter, DuplicateExpectationRejected) {
  Adapter sink{"sink", 1, AdapterKind::kLocalMemory, 256};
  sink.expect_message(1, Bytes{4}, {});
  EXPECT_THROW(sink.expect_message(1, Bytes{4}, {}), SimulationError);
}

TEST(Adapter, BusyWhileTxOrRxPending) {
  Adapter adapter{"a", 0, AdapterKind::kAccelerator, 256};
  EXPECT_FALSE(adapter.busy());
  adapter.enqueue_message(1, 1, Bytes{4});
  EXPECT_TRUE(adapter.busy());
  (void)adapter.consume_pending();
  (void)adapter.consume_pending();
  EXPECT_FALSE(adapter.busy());
  adapter.expect_message(5, Bytes{4}, {});
  EXPECT_TRUE(adapter.busy());
}

TEST(Adapter, TinyPacketPayloadRejected) {
  EXPECT_THROW(Adapter("a", 0, AdapterKind::kAccelerator, 2), ConfigError);
}

}  // namespace
}  // namespace hybridic::noc
