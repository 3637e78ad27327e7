#include "core/noc_placement.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace hybridic::core {

namespace {

/// Symmetric traffic lookup built once for the solvers.
class TrafficMatrix {
public:
  explicit TrafficMatrix(const PlacementProblem& problem)
      : n_(problem.attachment_count), data_(n_ * n_, 0) {
    for (const auto& [a, b, bytes] : problem.traffic) {
      require(a < n_ && b < n_, "placement traffic index out of range");
      data_[a * n_ + b] += bytes;
      data_[b * n_ + a] += bytes;
    }
  }

  [[nodiscard]] std::uint64_t at(std::uint32_t a, std::uint32_t b) const {
    return data_[a * n_ + b];
  }
  [[nodiscard]] std::uint64_t total_for(std::uint32_t a) const {
    std::uint64_t sum = 0;
    for (std::uint32_t b = 0; b < n_; ++b) {
      sum += at(a, b);
    }
    return sum;
  }
  [[nodiscard]] std::uint32_t size() const { return n_; }

private:
  std::uint32_t n_;
  std::vector<std::uint64_t> data_;
};

std::uint64_t cost_of(const TrafficMatrix& traffic, const noc::Mesh2D& mesh,
                      const std::vector<std::uint32_t>& node_of) {
  std::uint64_t cost = 0;
  for (std::uint32_t a = 0; a < traffic.size(); ++a) {
    for (std::uint32_t b = a + 1; b < traffic.size(); ++b) {
      const std::uint64_t bytes = traffic.at(a, b);
      if (bytes > 0) {
        cost += bytes * mesh.distance(node_of[a], node_of[b]);
      }
    }
  }
  return cost;
}

/// cost_of(node_of with a and b swapped), given cost = cost_of(node_of), in
/// O(n): only pairs touching a or b change, and (a, b) keeps its distance.
/// Unsigned arithmetic is exact modulo 2^64, so the result equals the full
/// recomputation bit for bit.
std::uint64_t swapped_cost(const TrafficMatrix& traffic,
                           const noc::Mesh2D& mesh,
                           const std::vector<std::uint32_t>& node_of,
                           std::uint64_t cost, std::uint32_t a,
                           std::uint32_t b) {
  std::uint64_t removed = 0;
  std::uint64_t added = 0;
  for (std::uint32_t c = 0; c < traffic.size(); ++c) {
    if (c == a || c == b) {
      continue;
    }
    const std::uint64_t with_a = traffic.at(a, c);
    const std::uint64_t with_b = traffic.at(b, c);
    if (with_a > 0) {
      removed += with_a * mesh.distance(node_of[a], node_of[c]);
      added += with_a * mesh.distance(node_of[b], node_of[c]);
    }
    if (with_b > 0) {
      removed += with_b * mesh.distance(node_of[b], node_of[c]);
      added += with_b * mesh.distance(node_of[a], node_of[c]);
    }
  }
  return cost - removed + added;
}

/// One pass of first-improvement pairwise swaps; returns true if improved.
bool improve_once(const TrafficMatrix& traffic, const noc::Mesh2D& mesh,
                  std::vector<std::uint32_t>& node_of, std::uint64_t& cost) {
  const std::uint32_t n = traffic.size();
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      const std::uint64_t candidate =
          swapped_cost(traffic, mesh, node_of, cost, a, b);
      if (candidate < cost) {
        std::swap(node_of[a], node_of[b]);
        cost = candidate;
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::uint64_t placement_cost(const PlacementProblem& problem,
                             const noc::Mesh2D& mesh,
                             const std::vector<std::uint32_t>& node_of) {
  require(node_of.size() == problem.attachment_count,
          "placement assignment size mismatch");
  return cost_of(TrafficMatrix{problem}, mesh, node_of);
}

PlacementResult place_attachments(const PlacementProblem& problem) {
  require(problem.attachment_count > 0,
          "placement requires at least one attachment");
  const TrafficMatrix traffic{problem};
  const noc::Mesh2D mesh = noc::Mesh2D::fitting(problem.attachment_count);
  const std::uint32_t n = problem.attachment_count;

  // Greedy: seed with the most-communicating attachment at the mesh center;
  // place each subsequent attachment (by descending total traffic) at the
  // free node minimizing incremental cost to already-placed peers.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&traffic](std::uint32_t a, std::uint32_t b) {
                     return traffic.total_for(a) > traffic.total_for(b);
                   });

  std::vector<bool> node_used(mesh.node_count(), false);
  std::vector<std::uint32_t> node_of(n, 0);
  std::vector<bool> placed(n, false);

  const std::uint32_t center =
      mesh.id_of({mesh.width() / 2, mesh.height() / 2});
  node_of[order[0]] = center;
  node_used[center] = true;
  placed[order[0]] = true;

  for (std::uint32_t k = 1; k < n; ++k) {
    const std::uint32_t item = order[k];
    std::uint64_t best_cost = UINT64_MAX;
    std::uint32_t best_node = 0;
    for (std::uint32_t node = 0; node < mesh.node_count(); ++node) {
      if (node_used[node]) {
        continue;
      }
      std::uint64_t incremental = 0;
      for (std::uint32_t other = 0; other < n; ++other) {
        if (placed[other] && traffic.at(item, other) > 0) {
          incremental +=
              traffic.at(item, other) * mesh.distance(node, node_of[other]);
        }
      }
      if (incremental < best_cost) {
        best_cost = incremental;
        best_node = node;
      }
    }
    node_of[item] = best_node;
    node_used[best_node] = true;
    placed[item] = true;
  }

  std::uint64_t cost = cost_of(traffic, mesh, node_of);
  while (improve_once(traffic, mesh, node_of, cost)) {
  }
  return PlacementResult{mesh, std::move(node_of), cost};
}

PlacementResult place_attachments_annealed(const PlacementProblem& problem,
                                           std::uint64_t seed,
                                           std::uint32_t iterations) {
  PlacementResult best = place_attachments(problem);
  if (problem.attachment_count < 3) {
    return best;
  }
  const TrafficMatrix traffic{problem};
  Rng rng{seed};
  std::vector<std::uint32_t> current = best.node_of;
  std::uint64_t current_cost = best.cost;
  double temperature =
      static_cast<double>(std::max<std::uint64_t>(best.cost, 1));

  for (std::uint32_t i = 0; i < iterations; ++i) {
    const auto a =
        static_cast<std::uint32_t>(rng.below(problem.attachment_count));
    auto b = static_cast<std::uint32_t>(rng.below(problem.attachment_count));
    if (a == b) {
      b = (b + 1) % problem.attachment_count;
    }
    const std::uint64_t candidate =
        swapped_cost(traffic, best.mesh, current, current_cost, a, b);
    const double delta = static_cast<double>(candidate) -
                         static_cast<double>(current_cost);
    if (delta <= 0.0 ||
        rng.uniform() < std::exp(-delta / std::max(temperature, 1e-9))) {
      std::swap(current[a], current[b]);
      current_cost = candidate;
      if (current_cost < best.cost) {
        best.cost = current_cost;
        best.node_of = current;
      }
    }
    temperature *= 0.9995;
  }
  return best;
}

}  // namespace hybridic::core
