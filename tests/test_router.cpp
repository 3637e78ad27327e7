#include "noc/router.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace hybridic::noc {
namespace {

Flit make_flit(FlitKind kind, std::uint64_t packet = 1) {
  Flit flit;
  flit.packet_id = packet;
  flit.message_id = packet;
  flit.kind = kind;
  return flit;
}

TEST(Router, AcceptsUpToBufferDepth) {
  Router router{0, RouterConfig{2, 1}};
  EXPECT_TRUE(router.can_accept(PortDir::kNorth));
  router.accept(PortDir::kNorth, make_flit(FlitKind::kHead), Picoseconds{0});
  router.accept(PortDir::kNorth, make_flit(FlitKind::kTail), Picoseconds{0});
  EXPECT_FALSE(router.can_accept(PortDir::kNorth));
  EXPECT_EQ(router.occupancy(), 2U);
}

TEST(Router, OverflowingBufferAsserts) {
  Router router{0, RouterConfig{1, 1}};
  router.accept(PortDir::kEast, make_flit(FlitKind::kHeadTail),
                Picoseconds{0});
  EXPECT_THROW(router.accept(PortDir::kEast, make_flit(FlitKind::kHead),
                             Picoseconds{0}),
               SimulationError);
}

TEST(Router, ReadyFrontHonorsPipelineDelay) {
  Router router{0, RouterConfig{4, 2}};
  router.accept(PortDir::kWest, make_flit(FlitKind::kHead),
                Picoseconds{100});
  EXPECT_EQ(router.ready_front(PortDir::kWest, Picoseconds{99}), nullptr);
  EXPECT_NE(router.ready_front(PortDir::kWest, Picoseconds{100}), nullptr);
}

TEST(Router, PopReturnsFifoOrder) {
  Router router{0, RouterConfig{4, 1}};
  Flit a = make_flit(FlitKind::kHead);
  a.sequence = 0;
  Flit b = make_flit(FlitKind::kTail);
  b.sequence = 1;
  router.accept(PortDir::kLocal, a, Picoseconds{0});
  router.accept(PortDir::kLocal, b, Picoseconds{0});
  EXPECT_EQ(router.pop(PortDir::kLocal).sequence, 0U);
  EXPECT_EQ(router.pop(PortDir::kLocal).sequence, 1U);
  EXPECT_THROW(router.pop(PortDir::kLocal), SimulationError);
}

TEST(Router, OutputLockLifecycle) {
  Router router{0, RouterConfig{}};
  EXPECT_FALSE(router.output_locked(PortDir::kEast));
  router.lock_output(PortDir::kEast, PortDir::kWest);
  EXPECT_TRUE(router.output_locked(PortDir::kEast));
  EXPECT_EQ(router.lock_owner(PortDir::kEast), PortDir::kWest);
  EXPECT_THROW(router.lock_output(PortDir::kEast, PortDir::kNorth),
               SimulationError);
  router.unlock_output(PortDir::kEast);
  EXPECT_FALSE(router.output_locked(PortDir::kEast));
}

TEST(Router, ArbitrationRotates) {
  Router router{0, RouterConfig{4, 1}};
  std::array<bool, kPortCount> candidates{};
  candidates[static_cast<std::size_t>(PortDir::kNorth)] = true;
  candidates[static_cast<std::size_t>(PortDir::kEast)] = true;
  const auto first = router.arbitrate(PortDir::kLocal, candidates);
  const auto second = router.arbitrate(PortDir::kLocal, candidates);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*first, *second);  // Two competitors alternate.
}

TEST(Router, ArbitrationRotatesOverAllFiveInputs) {
  // Every input competes for one output: grants walk N, E, S, W, L from
  // the initial pointer (just past Local) and wrap around.
  Router router{0, RouterConfig{}};
  std::array<bool, kPortCount> candidates{};
  candidates.fill(true);
  const std::array<PortDir, kPortCount> order{PortDir::kNorth, PortDir::kEast,
                                              PortDir::kSouth, PortDir::kWest,
                                              PortDir::kLocal};
  for (std::size_t grant = 0; grant < 2 * kPortCount; ++grant) {
    const auto winner = router.arbitrate(PortDir::kEast, candidates);
    ASSERT_TRUE(winner.has_value());
    EXPECT_EQ(*winner, order[grant % kPortCount]) << "grant " << grant;
  }
}

TEST(Router, ArbitrationWithNoCandidates) {
  Router router{0, RouterConfig{}};
  std::array<bool, kPortCount> none{};
  EXPECT_FALSE(router.arbitrate(PortDir::kNorth, none).has_value());
}

TEST(Router, InvalidConfigRejected) {
  EXPECT_THROW(Router(0, RouterConfig{0, 1}), ConfigError);
  EXPECT_THROW(Router(0, RouterConfig{4, 0}), ConfigError);
}

TEST(FlitTest, KindPredicates) {
  EXPECT_TRUE(make_flit(FlitKind::kHead).is_head());
  EXPECT_TRUE(make_flit(FlitKind::kHeadTail).is_head());
  EXPECT_TRUE(make_flit(FlitKind::kHeadTail).is_tail());
  EXPECT_TRUE(make_flit(FlitKind::kTail).is_tail());
  EXPECT_FALSE(make_flit(FlitKind::kBody).is_head());
  EXPECT_FALSE(make_flit(FlitKind::kBody).is_tail());
}

TEST(FlitTest, PayloadFlitCount) {
  EXPECT_EQ(payload_flits(0), 0U);
  EXPECT_EQ(payload_flits(1), 1U);
  EXPECT_EQ(payload_flits(4), 1U);
  EXPECT_EQ(payload_flits(5), 2U);
  EXPECT_EQ(payload_flits(1024), 256U);
}

}  // namespace
}  // namespace hybridic::noc
