// 2-D mesh topology: node ids, coordinates, ports and neighbor arithmetic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/error.hpp"

namespace hybridic::noc {

/// Router ports. kLocal attaches the network adapter.
enum class PortDir : std::uint8_t {
  kNorth = 0,
  kEast = 1,
  kSouth = 2,
  kWest = 3,
  kLocal = 4,
};
inline constexpr std::uint32_t kPortCount = 5;

[[nodiscard]] constexpr PortDir opposite(PortDir d) {
  switch (d) {
    case PortDir::kNorth:
      return PortDir::kSouth;
    case PortDir::kEast:
      return PortDir::kWest;
    case PortDir::kSouth:
      return PortDir::kNorth;
    case PortDir::kWest:
      return PortDir::kEast;
    case PortDir::kLocal:
      return PortDir::kLocal;
  }
  return PortDir::kLocal;
}

[[nodiscard]] std::string to_string(PortDir d);

/// Coordinates on the mesh; (0,0) is the south-west corner.
struct Coord {
  std::uint32_t x = 0;
  std::uint32_t y = 0;

  friend constexpr bool operator==(Coord, Coord) = default;
};

/// A W x H mesh of routers addressed row-major: id = y * W + x.
class Mesh2D {
public:
  Mesh2D(std::uint32_t width, std::uint32_t height)
      : width_(width), height_(height) {
    if (width == 0 || height == 0) {
      throw ConfigError{"mesh dimensions must be non-zero, got " +
                        std::to_string(width) + "x" + std::to_string(height)};
    }
  }

  [[nodiscard]] std::uint32_t width() const { return width_; }
  [[nodiscard]] std::uint32_t height() const { return height_; }
  [[nodiscard]] std::uint32_t node_count() const { return width_ * height_; }

  [[nodiscard]] Coord coord_of(std::uint32_t id) const {
    if (id >= node_count()) {
      throw_bad_node(id);
    }
    return Coord{id % width_, id / width_};
  }

  [[nodiscard]] std::uint32_t id_of(Coord c) const {
    if (c.x >= width_ || c.y >= height_) {
      throw_bad_coord(c);
    }
    return c.y * width_ + c.x;
  }

  /// Neighbor in direction `d`, if it exists on the mesh boundary.
  [[nodiscard]] std::optional<std::uint32_t> neighbor(std::uint32_t id,
                                                      PortDir d) const {
    const Coord c = coord_of(id);
    switch (d) {
      case PortDir::kNorth:
        return c.y + 1 < height_ ? std::optional{id_of({c.x, c.y + 1})}
                                 : std::nullopt;
      case PortDir::kEast:
        return c.x + 1 < width_ ? std::optional{id_of({c.x + 1, c.y})}
                                : std::nullopt;
      case PortDir::kSouth:
        return c.y > 0 ? std::optional{id_of({c.x, c.y - 1})} : std::nullopt;
      case PortDir::kWest:
        return c.x > 0 ? std::optional{id_of({c.x - 1, c.y})} : std::nullopt;
      case PortDir::kLocal:
        return std::nullopt;
    }
    return std::nullopt;
  }

  /// Manhattan distance in hops between two nodes.
  [[nodiscard]] std::uint32_t distance(std::uint32_t a, std::uint32_t b) const {
    const Coord ca = coord_of(a);
    const Coord cb = coord_of(b);
    const std::uint32_t dx = ca.x > cb.x ? ca.x - cb.x : cb.x - ca.x;
    const std::uint32_t dy = ca.y > cb.y ? ca.y - cb.y : cb.y - ca.y;
    return dx + dy;
  }

  /// Smallest mesh (squarish) with at least `nodes` routers.
  [[nodiscard]] static Mesh2D fitting(std::uint32_t nodes);

private:
  // Out-of-line so the error-message formatting stays off the inlined
  // hot paths.
  [[noreturn]] void throw_bad_node(std::uint32_t id) const;
  [[noreturn]] void throw_bad_coord(Coord c) const;

  std::uint32_t width_;
  std::uint32_t height_;
};

}  // namespace hybridic::noc
