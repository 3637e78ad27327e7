#include "noc/routing.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace hybridic::noc {

namespace {
constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();
constexpr PortDir kMeshDirs[] = {PortDir::kNorth, PortDir::kEast,
                                 PortDir::kSouth, PortDir::kWest};
}  // namespace

LinkState::LinkState(
    const Mesh2D& mesh,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& dead_links)
    : mesh_(mesh) {
  for (const auto& [a, b] : dead_links) {
    // Build messages with += into a named string: gcc 12 raises spurious
    // -Wrestrict warnings on long operator+ chains.
    if (a >= mesh_.node_count() || b >= mesh_.node_count()) {
      std::string message = "dead link (";
      message += std::to_string(a);
      message += ", ";
      message += std::to_string(b);
      message += ") names a node outside the ";
      message += std::to_string(mesh_.width());
      message += "x";
      message += std::to_string(mesh_.height());
      message += " mesh (valid ids: 0..";
      message += std::to_string(mesh_.node_count() - 1);
      message += ")";
      throw ConfigError{message};
    }
    const Coord ca = mesh_.coord_of(a);
    const Coord cb = mesh_.coord_of(b);
    const std::uint32_t dx = ca.x > cb.x ? ca.x - cb.x : cb.x - ca.x;
    const std::uint32_t dy = ca.y > cb.y ? ca.y - cb.y : cb.y - ca.y;
    if (dx + dy != 1) {
      std::string message = "dead link (";
      message += std::to_string(a);
      message += ", ";
      message += std::to_string(b);
      message += ") does not name adjacent mesh nodes; links exist only "
                 "between horizontal/vertical neighbors";
      throw ConfigError{message};
    }
    dead_.insert({std::min(a, b), std::max(a, b)});
  }
}

bool LinkState::link_up(std::uint32_t node, PortDir dir) const {
  const std::optional<std::uint32_t> neighbor = mesh_.neighbor(node, dir);
  if (!neighbor.has_value()) {
    return false;
  }
  return dead_.find({std::min(node, *neighbor), std::max(node, *neighbor)}) ==
         dead_.end();
}

const std::vector<std::uint32_t>& LinkState::distances_to(
    std::uint32_t destination) const {
  auto it = dist_cache_.find(destination);
  if (it != dist_cache_.end()) {
    return it->second;
  }
  std::vector<std::uint32_t> dist(mesh_.node_count(), kUnreachable);
  dist[destination] = 0;
  std::deque<std::uint32_t> frontier{destination};
  while (!frontier.empty()) {
    const std::uint32_t node = frontier.front();
    frontier.pop_front();
    for (const PortDir dir : kMeshDirs) {
      if (!link_up(node, dir)) {
        continue;
      }
      const std::uint32_t next = *mesh_.neighbor(node, dir);
      if (dist[next] == kUnreachable) {
        dist[next] = dist[node] + 1;
        frontier.push_back(next);
      }
    }
  }
  return dist_cache_.emplace(destination, std::move(dist)).first->second;
}

bool LinkState::reachable(std::uint32_t src, std::uint32_t dst) const {
  return distances_to(dst)[src] != kUnreachable;
}

std::optional<PortDir> LinkState::next_hop(std::uint32_t current,
                                           std::uint32_t destination) const {
  if (current == destination) {
    return PortDir::kLocal;
  }
  const std::vector<std::uint32_t>& dist = distances_to(destination);
  if (dist[current] == kUnreachable) {
    return std::nullopt;
  }
  for (const PortDir dir : kMeshDirs) {
    if (!link_up(current, dir)) {
      continue;
    }
    const std::uint32_t next = *mesh_.neighbor(current, dir);
    if (dist[next] + 1 == dist[current]) {
      return dir;
    }
  }
  return std::nullopt;  // unreachable: dist[current] finite implies a hop
}

bool LinkState::detours(std::uint32_t src, std::uint32_t dst) const {
  const Coord to = mesh_.coord_of(dst);
  std::uint32_t current = src;
  // XY is minimal, so the walk ends within node_count hops.
  for (std::uint32_t steps = 0; steps < mesh_.node_count(); ++steps) {
    const PortDir dir = xy_route(mesh_.coord_of(current), to);
    if (dir == PortDir::kLocal) {
      return false;
    }
    if (!link_up(current, dir)) {
      return true;
    }
    current = *mesh_.neighbor(current, dir);
  }
  return true;
}

}  // namespace hybridic::noc
