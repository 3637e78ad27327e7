#include "sys/board_net.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>

#include "util/error.hpp"

namespace hybridic::sys {

namespace {

/// Undirected topology edges for `boards` boards.
std::vector<std::pair<std::uint32_t, std::uint32_t>> topology_links(
    std::uint32_t boards, core::BoardTopology topology) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> links;
  switch (topology) {
    case core::BoardTopology::kChain:
    case core::BoardTopology::kRing:
      for (std::uint32_t b = 0; b + 1 < boards; ++b) {
        links.push_back({b, b + 1});
      }
      // The wrap-around link only exists for rings of >= 3 boards (a
      // 2-board ring is the chain; a duplicate link adds nothing).
      if (topology == core::BoardTopology::kRing && boards >= 3) {
        links.push_back({0, boards - 1});
      }
      break;
    case core::BoardTopology::kMesh: {
      const auto [width, height] = BoardNetwork::mesh_dims(boards);
      (void)height;
      for (std::uint32_t b = 0; b < boards; ++b) {
        const std::uint32_t x = b % width;
        if (x + 1 < width && b + 1 < boards) {
          links.push_back({b, b + 1});
        }
        if (b + width < boards) {
          links.push_back({b, b + width});
        }
      }
      break;
    }
  }
  return links;
}

}  // namespace

std::pair<std::uint32_t, std::uint32_t> BoardNetwork::mesh_dims(
    std::uint32_t boards) {
  std::uint32_t width = 1;
  while (width * width < boards) {
    ++width;
  }
  const std::uint32_t height = (boards + width - 1) / width;
  return {width, height};
}

BoardNetwork::BoardNetwork(std::uint32_t board_count,
                           core::BoardTopology topology,
                           InterBoardLinkConfig link,
                           const std::vector<faults::LinkDown>& dead_links)
    : board_count_(board_count), topology_(topology), link_(link) {
  require(board_count >= 1, "board network needs at least one board");
  require(link.bandwidth_bytes_per_second > 0.0,
          "inter-board link bandwidth must be positive");
  require(link.latency_seconds >= 0.0,
          "inter-board link latency must be non-negative");

  pristine_.assign(board_count, {});
  live_.assign(board_count, {});
  const auto links = topology_links(board_count, topology);
  const auto is_dead = [&](std::uint32_t a, std::uint32_t b) {
    for (const faults::LinkDown& dead : dead_links) {
      if ((dead.a == a && dead.b == b) || (dead.a == b && dead.b == a)) {
        return true;
      }
    }
    return false;
  };
  for (const auto& [a, b] : links) {
    pristine_[a].push_back(b);
    pristine_[b].push_back(a);
    if (!is_dead(a, b)) {
      live_[a].push_back(b);
      live_[b].push_back(a);
    }
  }
  for (auto* adjacency : {&pristine_, &live_}) {
    for (auto& row : *adjacency) {
      std::sort(row.begin(), row.end());
    }
  }

  // Every dead link must name an actual topology link.
  for (const faults::LinkDown& dead : dead_links) {
    const bool exists =
        dead.a < board_count && dead.b < board_count &&
        std::find(pristine_[dead.a].begin(), pristine_[dead.a].end(),
                  dead.b) != pristine_[dead.a].end();
    if (!exists) {
      throw ConfigError{"dead board link " + std::to_string(dead.a) + "-" +
                        std::to_string(dead.b) + " is not a " +
                        std::string(core::to_string(topology)) +
                        " topology link for " + std::to_string(board_count) +
                        " boards"};
    }
  }

  // The surviving network must stay connected: a dead chain link (or any
  // cut set) has no detour and would black-hole inter-board traffic.
  std::vector<bool> reachable(board_count, false);
  std::deque<std::uint32_t> frontier{0};
  reachable[0] = true;
  while (!frontier.empty()) {
    const std::uint32_t b = frontier.front();
    frontier.pop_front();
    for (const std::uint32_t n : live_[b]) {
      if (!reachable[n]) {
        reachable[n] = true;
        frontier.push_back(n);
      }
    }
  }
  for (std::uint32_t b = 0; b < board_count; ++b) {
    if (!reachable[b]) {
      throw ConfigError{"dead inter-board links disconnect board " +
                        std::to_string(b) + " (" +
                        std::string(core::to_string(topology)) +
                        " topology has no detour)"};
    }
  }
}

std::vector<std::uint32_t> BoardNetwork::bfs_route(
    std::uint32_t src, std::uint32_t dst,
    const std::vector<std::vector<std::uint32_t>>& adjacency) const {
  std::vector<std::uint32_t> parent(board_count_, board_count_);
  std::deque<std::uint32_t> frontier{src};
  parent[src] = src;
  while (!frontier.empty() && parent[dst] == board_count_) {
    const std::uint32_t b = frontier.front();
    frontier.pop_front();
    for (const std::uint32_t n : adjacency[b]) {  // Ascending: determinism.
      if (parent[n] == board_count_) {
        parent[n] = b;
        frontier.push_back(n);
      }
    }
  }
  std::vector<std::uint32_t> path;
  for (std::uint32_t b = dst; b != src; b = parent[b]) {
    path.push_back(b);
  }
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::uint32_t> BoardNetwork::route(std::uint32_t src,
                                               std::uint32_t dst,
                                               bool* rerouted) const {
  require(src < board_count_ && dst < board_count_,
          "board route endpoint out of range");
  if (rerouted != nullptr) {
    *rerouted = false;
  }
  if (src == dst) {
    return {src};
  }
  const std::vector<std::uint32_t> live_path = bfs_route(src, dst, live_);
  if (rerouted != nullptr) {
    // Rerouted iff the canonical fault-free path crosses a dead link.
    const std::vector<std::uint32_t> canonical =
        bfs_route(src, dst, pristine_);
    for (std::size_t i = 0; i + 1 < canonical.size(); ++i) {
      const std::uint32_t a = canonical[i];
      const std::uint32_t b = canonical[i + 1];
      if (std::find(live_[a].begin(), live_[a].end(), b) == live_[a].end()) {
        *rerouted = true;
        break;
      }
    }
  }
  return live_path;
}

std::uint32_t BoardNetwork::hop_count(std::uint32_t src,
                                      std::uint32_t dst) const {
  return static_cast<std::uint32_t>(route(src, dst).size() - 1);
}

double BoardNetwork::transfer_seconds(Bytes bytes,
                                      std::uint32_t hops) const {
  return static_cast<double>(hops) *
         (link_.latency_seconds + static_cast<double>(bytes.count()) /
                                      link_.bandwidth_bytes_per_second);
}

}  // namespace hybridic::sys
