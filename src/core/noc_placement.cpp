#include "core/noc_placement.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace hybridic::core {

namespace {

/// Symmetric traffic lookup built once per problem, with each attachment's
/// total. A self pair counts toward its attachment's total (which orders
/// the greedy) but never prices a placement, so the diagonal stays zero.
class TrafficMatrix {
public:
  explicit TrafficMatrix(const PlacementProblem& problem)
      : n_(problem.attachment_count),
        data_(std::size_t{n_} * n_, 0),
        totals_(n_, 0) {
    for (const auto& [a, b, bytes] : problem.traffic) {
      require(a < n_ && b < n_, "placement traffic index out of range");
      totals_[a] += bytes;
      totals_[b] += bytes;
      if (a != b) {
        data_[a * n_ + b] += bytes;
        data_[b * n_ + a] += bytes;
      }
    }
  }

  [[nodiscard]] std::uint64_t at(std::uint32_t a, std::uint32_t b) const {
    return data_[a * n_ + b];
  }
  [[nodiscard]] const std::uint64_t* row(std::uint32_t a) const {
    return &data_[a * n_];
  }
  [[nodiscard]] std::uint64_t total_for(std::uint32_t a) const {
    return totals_[a];
  }
  [[nodiscard]] std::uint32_t size() const { return n_; }

private:
  std::uint32_t n_;
  std::vector<std::uint64_t> data_;
  std::vector<std::uint64_t> totals_;
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

/// An assignment under construction with its reach table: reach(x, p) =
/// Σ T(x, c) · hops(p, node(c)) over the placed attachments c ≠ x, the
/// cost x would pay its placed peers from node p. Placing an attachment
/// adds its column to the rows of its peers; once all are placed, a swap
/// of a and b prices in O(1) from four entries (see swapped_cost). All
/// arithmetic is unsigned, exact modulo 2^64, so every cost equals the
/// pairwise sum bit for bit.
class Placement {
public:
  Placement(const TrafficMatrix& traffic, const noc::Mesh2D& mesh)
      : traffic_(traffic),
        nodes_(mesh.node_count()),
        hops_(std::size_t{nodes_} * nodes_),
        reach_(std::size_t{traffic.size()} * nodes_, 0),
        node_of_(traffic.size(), 0) {
    // From coordinates taken once: Mesh2D::distance divides per call.
    std::vector<noc::Coord> coord(nodes_);
    for (std::uint32_t p = 0; p < nodes_; ++p) {
      coord[p] = mesh.coord_of(p);
    }
    for (std::uint32_t p = 0; p < nodes_; ++p) {
      for (std::uint32_t q = 0; q < nodes_; ++q) {
        const std::uint32_t dx =
            coord[p].x > coord[q].x ? coord[p].x - coord[q].x
                                    : coord[q].x - coord[p].x;
        const std::uint32_t dy =
            coord[p].y > coord[q].y ? coord[p].y - coord[q].y
                                    : coord[q].y - coord[p].y;
        hops_[p * nodes_ + q] = dx + dy;
      }
    }
  }

  [[nodiscard]] std::uint64_t reach(std::uint32_t x, std::uint32_t p) const {
    return reach_[x * nodes_ + p];
  }

  /// Put attachment c on node p and add it to its peers' reach.
  void place(std::uint32_t c, std::uint32_t p) {
    node_of_[c] = p;
    const std::uint32_t* hops = &hops_[p * nodes_];
    const std::uint64_t* bytes = traffic_.row(c);
    for (std::uint32_t x = 0; x < traffic_.size(); ++x) {
      if (bytes[x] != 0) {
        std::uint64_t* row = &reach_[x * nodes_];
        for (std::uint32_t q = 0; q < nodes_; ++q) {
          row[q] += bytes[x] * hops[q];
        }
      }
    }
  }

  /// The cost after swapping a and b, given the current cost: only pairs
  /// touching a or b change, and reach(a, node(b)) counts (a, b) at
  /// distance 0 where reach(a, node(a)) counts it at its true distance.
  [[nodiscard]] std::uint64_t swapped_cost(std::uint64_t cost,
                                           std::uint32_t a,
                                           std::uint32_t b) const {
    const std::uint32_t na = node_of_[a];
    const std::uint32_t nb = node_of_[b];
    return cost + reach(a, nb) + reach(b, na) - reach(a, na) - reach(b, nb) +
           2 * traffic_.at(a, b) * hops_[na * nodes_ + nb];
  }

  /// Swap a and b. Row x moves by (T(x,a) − T(x,b)) · (hops(·, old node of
  /// b) − hops(·, old node of a)), so only rows where those differ change.
  void swap(std::uint32_t a, std::uint32_t b) {
    const std::uint32_t* to_b = &hops_[node_of_[b] * nodes_];
    const std::uint32_t* to_a = &hops_[node_of_[a] * nodes_];
    for (std::uint32_t x = 0; x < traffic_.size(); ++x) {
      const std::uint64_t diff = traffic_.at(x, a) - traffic_.at(x, b);
      if (diff != 0) {
        std::uint64_t* row = &reach_[x * nodes_];
        for (std::uint32_t q = 0; q < nodes_; ++q) {
          row[q] += diff * (std::uint64_t{to_b[q]} - to_a[q]);
        }
      }
    }
    std::swap(node_of_[a], node_of_[b]);
  }

  [[nodiscard]] std::vector<std::uint32_t>& node_of() { return node_of_; }

private:
  const TrafficMatrix& traffic_;
  std::uint32_t nodes_;
  std::vector<std::uint32_t> hops_;
  std::vector<std::uint64_t> reach_;
  std::vector<std::uint32_t> node_of_;
};

/// One pass of first-improvement pairwise swaps from (0, 1); returns true
/// if it improved.
bool improve_once(Placement& placement, std::uint32_t n,
                  std::uint64_t& cost) {
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      const std::uint64_t candidate = placement.swapped_cost(cost, a, b);
      if (candidate < cost) {
        placement.swap(a, b);
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
  // free node minimizing incremental cost to already-placed peers — its
  // reach from that node.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&traffic](std::uint32_t a, std::uint32_t b) {
                     return traffic.total_for(a) > traffic.total_for(b);
                   });

  Placement placement{traffic, mesh};
  std::vector<bool> node_used(mesh.node_count(), false);
  const std::uint32_t center =
      mesh.id_of({mesh.width() / 2, mesh.height() / 2});
  placement.place(order[0], center);
  node_used[center] = true;

  for (std::uint32_t k = 1; k < n; ++k) {
    const std::uint32_t item = order[k];
    std::uint64_t best_cost = UINT64_MAX;
    std::uint32_t best_node = 0;
    for (std::uint32_t node = 0; node < mesh.node_count(); ++node) {
      if (!node_used[node] && placement.reach(item, node) < best_cost) {
        best_cost = placement.reach(item, node);
        best_node = node;
      }
    }
    placement.place(item, best_node);
    node_used[best_node] = true;
  }

  std::uint64_t cost = cost_of(traffic, mesh, placement.node_of());
  while (improve_once(placement, n, cost)) {
  }
  return PlacementResult{mesh, std::move(placement.node_of()), cost};
}

}  // namespace hybridic::core
