#include "prof/comm_graph.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/table.hpp"

namespace hybridic::prof {

FunctionId CommGraph::add_function(std::string name) {
  if (by_name_.find(name) != by_name_.end()) {
    throw ConfigError{"duplicate function name in CommGraph: " + name};
  }
  const auto id = static_cast<FunctionId>(functions_.size());
  by_name_.emplace(name, id);
  functions_.push_back(FunctionProfile{std::move(name), 0, 0, 0, 0});
  return id;
}

FunctionId CommGraph::id_of(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw ConfigError{"unknown function in CommGraph: " + name};
  }
  return it->second;
}

bool CommGraph::has_function(const std::string& name) const {
  return by_name_.find(name) != by_name_.end();
}

void CommGraph::add_transfer(FunctionId producer, FunctionId consumer,
                             Bytes bytes,
                             std::uint64_t new_unique_addresses) {
  EdgeTotals& edge = totals(producer, consumer);
  edge.bytes += bytes.count();
  edge.unique_addresses += new_unique_addresses;
}

CommGraph::EdgeTotals& CommGraph::totals(FunctionId producer,
                                         FunctionId consumer) {
  require(producer < functions_.size() && consumer < functions_.size(),
          "CommGraph transfer endpoints out of range");
  return edges_[{producer, consumer}];
}

std::vector<CommEdge> CommGraph::edges() const {
  std::vector<CommEdge> result;
  result.reserve(edges_.size());
  for (const auto& [key, data] : edges_) {
    if (data.bytes == 0) {
      continue;
    }
    result.push_back(CommEdge{key.first, key.second, Bytes{data.bytes},
                              data.unique_addresses});
  }
  return result;
}

Bytes CommGraph::bytes_between(FunctionId producer,
                               FunctionId consumer) const {
  const auto it = edges_.find({producer, consumer});
  return it == edges_.end() ? Bytes{0} : Bytes{it->second.bytes};
}

Bytes CommGraph::total_out(FunctionId f) const {
  std::uint64_t total = 0;
  for (const auto& [key, data] : edges_) {
    if (key.first == f) {
      total += data.bytes;
    }
  }
  return Bytes{total};
}

Bytes CommGraph::total_in(FunctionId f) const {
  std::uint64_t total = 0;
  for (const auto& [key, data] : edges_) {
    if (key.second == f) {
      total += data.bytes;
    }
  }
  return Bytes{total};
}

std::string CommGraph::summary() const {
  Table table{"Data communication profile"};
  table.set_header({"producer", "consumer", "bytes", "UMAs"});
  for (const CommEdge& edge : edges()) {
    table.add_row({functions_[edge.producer].name,
                   functions_[edge.consumer].name,
                   std::to_string(edge.bytes.count()),
                   std::to_string(edge.unique_addresses)});
  }
  return table.to_string();
}

}  // namespace hybridic::prof
