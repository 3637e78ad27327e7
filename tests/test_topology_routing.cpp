#include <gtest/gtest.h>

#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "util/error.hpp"

namespace hybridic::noc {
namespace {

TEST(Mesh2D, CoordinateRoundTrip) {
  const Mesh2D mesh{4, 3};
  EXPECT_EQ(mesh.node_count(), 12U);
  for (std::uint32_t id = 0; id < mesh.node_count(); ++id) {
    EXPECT_EQ(mesh.id_of(mesh.coord_of(id)), id);
  }
}

TEST(Mesh2D, NeighborsInterior) {
  const Mesh2D mesh{3, 3};
  const std::uint32_t center = mesh.id_of({1, 1});
  EXPECT_EQ(*mesh.neighbor(center, PortDir::kNorth), mesh.id_of({1, 2}));
  EXPECT_EQ(*mesh.neighbor(center, PortDir::kEast), mesh.id_of({2, 1}));
  EXPECT_EQ(*mesh.neighbor(center, PortDir::kSouth), mesh.id_of({1, 0}));
  EXPECT_EQ(*mesh.neighbor(center, PortDir::kWest), mesh.id_of({0, 1}));
}

TEST(Mesh2D, NeighborsAtBoundary) {
  const Mesh2D mesh{3, 3};
  const std::uint32_t corner = mesh.id_of({0, 0});
  EXPECT_FALSE(mesh.neighbor(corner, PortDir::kSouth).has_value());
  EXPECT_FALSE(mesh.neighbor(corner, PortDir::kWest).has_value());
  EXPECT_TRUE(mesh.neighbor(corner, PortDir::kNorth).has_value());
  EXPECT_TRUE(mesh.neighbor(corner, PortDir::kEast).has_value());
  EXPECT_FALSE(mesh.neighbor(corner, PortDir::kLocal).has_value());
}

TEST(Mesh2D, ManhattanDistance) {
  const Mesh2D mesh{4, 4};
  EXPECT_EQ(mesh.distance(mesh.id_of({0, 0}), mesh.id_of({3, 3})), 6U);
  EXPECT_EQ(mesh.distance(mesh.id_of({2, 1}), mesh.id_of({2, 1})), 0U);
  EXPECT_EQ(mesh.distance(mesh.id_of({1, 0}), mesh.id_of({0, 2})), 3U);
}

TEST(Mesh2D, FittingProducesMinimalSquarishMesh) {
  EXPECT_EQ(Mesh2D::fitting(1).node_count(), 1U);
  const Mesh2D four = Mesh2D::fitting(4);
  EXPECT_EQ(four.width(), 2U);
  EXPECT_EQ(four.height(), 2U);
  const Mesh2D five = Mesh2D::fitting(5);
  EXPECT_GE(five.node_count(), 5U);
  EXPECT_LE(five.width(), 3U);
  const Mesh2D nine = Mesh2D::fitting(9);
  EXPECT_EQ(nine.width(), 3U);
  EXPECT_EQ(nine.height(), 3U);
}

TEST(Mesh2D, InvalidDimensionsRejected) {
  EXPECT_THROW(Mesh2D(0, 1), ConfigError);
  EXPECT_THROW((void)Mesh2D::fitting(0), ConfigError);
}

TEST(PortDirTest, OppositeIsInvolution) {
  for (const PortDir d : {PortDir::kNorth, PortDir::kEast, PortDir::kSouth,
                          PortDir::kWest, PortDir::kLocal}) {
    EXPECT_EQ(opposite(opposite(d)), d);
  }
  EXPECT_EQ(opposite(PortDir::kNorth), PortDir::kSouth);
  EXPECT_EQ(opposite(PortDir::kEast), PortDir::kWest);
}

TEST(XyRoutingTest, CorrectsXFirst) {
  // From (0,0) to (2,2): go east first.
  EXPECT_EQ(xy_route({0, 0}, {2, 2}), PortDir::kEast);
  // Same column: go north.
  EXPECT_EQ(xy_route({2, 0}, {2, 2}), PortDir::kNorth);
  // Arrived: eject.
  EXPECT_EQ(xy_route({2, 2}, {2, 2}), PortDir::kLocal);
  // Westward and southward.
  EXPECT_EQ(xy_route({3, 3}, {1, 3}), PortDir::kWest);
  EXPECT_EQ(xy_route({1, 3}, {1, 0}), PortDir::kSouth);
}

/// Property: following a routing decision from any source reaches any
/// destination in exactly the Manhattan distance number of hops — XY
/// routing, and the fault-aware BFS next hops on a mesh with no dead link.
class RoutingWalk
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(RoutingWalk, ReachesDestinationInMinimalHops) {
  const auto& [name, w, h] = GetParam();
  const Mesh2D mesh{w, h};
  const LinkState intact{mesh, {}};
  const auto route = [&](std::uint32_t at, std::uint32_t dst) {
    return name == "XY" ? xy_route(mesh.coord_of(at), mesh.coord_of(dst))
                        : *intact.next_hop(at, dst);
  };
  for (std::uint32_t src = 0; src < mesh.node_count(); ++src) {
    for (std::uint32_t dst = 0; dst < mesh.node_count(); ++dst) {
      std::uint32_t current = src;
      std::uint32_t hops = 0;
      while (true) {
        const PortDir dir = route(current, dst);
        if (dir == PortDir::kLocal) {
          break;
        }
        const auto next = mesh.neighbor(current, dir);
        ASSERT_TRUE(next.has_value()) << "routed off the mesh";
        current = *next;
        ++hops;
        ASSERT_LE(hops, mesh.node_count()) << "routing loop";
      }
      EXPECT_EQ(current, dst);
      EXPECT_EQ(hops, mesh.distance(src, dst));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeshSweep, RoutingWalk,
    ::testing::Combine(::testing::Values(std::string{"XY"},
                                         std::string{"BFS"}),
                       ::testing::Values(1U, 2U, 3U, 5U),
                       ::testing::Values(1U, 2U, 4U)));

}  // namespace
}  // namespace hybridic::noc
