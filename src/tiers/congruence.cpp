#include "tiers/congruence.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "core/kernel_model.hpp"
#include "util/hash.hpp"
#include "util/text.hpp"

namespace hybridic::tiers {
namespace {

/// Append `value` in decimal, as operator<< prints it.
template <typename Int>
void append(std::string& out, Int value) {
  char digits[24];
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

/// Sort `lines` and drop repeats: the order and content of a std::set.
void sort_unique(std::vector<std::string>& lines) {
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

/// The order-free part of one instance's record: everything about it
/// except references to other instances.
std::string instance_record(const core::KernelInstance& inst,
                            const sys::AppSchedule& schedule,
                            const core::DesignResult& design) {
  std::string out{"i"};
  append(out, static_cast<int>(inst.mapping.kernel));
  out += ':';
  append(out, static_cast<int>(inst.mapping.memory));
  out += ':';
  append(out, static_cast<int>(inst.comm_class.recv));
  out += ':';
  append(out, static_cast<int>(inst.comm_class.send));
  out += ':';
  out += util::hexf(inst.work_share);
  for (const std::uint64_t count :
       {inst.quantities.host_in.count(), inst.quantities.kernel_in.count(),
        inst.quantities.host_out.count(), inst.quantities.kernel_out.count(),
        inst.residual.host_in.count(), inst.residual.kernel_in.count(),
        inst.residual.host_out.count(), inst.residual.kernel_out.count(),
        schedule.specs[inst.spec_index].hw_compute_cycles.count()}) {
    out += ':';
    append(out, count);
  }
  // Mesh placement is part of the fabric: same structure on different
  // nodes routes differently, so the nodes are part of the record.
  if (design.noc.has_value()) {
    const char* sep = ":n";
    for (const core::NocAttachment& a : design.noc->attachments) {
      if (design.instances[a.instance].function == inst.function) {
        out += sep;
        out += a.kind == core::NocNodeKind::kKernel ? 'k' : 'm';
        append(out, a.node);
        sep = ",";
      }
    }
  }
  return out;
}

}  // namespace

std::string congruence_signature(const sys::AppSchedule& schedule,
                                 const core::DesignResult& design,
                                 double theta_seconds_per_byte) {
  // Canonical instance order: sort by the order-free record, original
  // index breaking ties (Algorithm 1's discovery order is deterministic,
  // so ties never make the signature ambiguous — two instances with equal
  // records are interchangeable by construction).
  std::vector<std::string> records;
  records.reserve(design.instances.size());
  for (const core::KernelInstance& inst : design.instances) {
    records.push_back(instance_record(inst, schedule, design));
  }
  std::vector<std::size_t> order(design.instances.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&records](std::size_t a, std::size_t b) {
              return records[a] != records[b] ? records[a] < records[b]
                                              : a < b;
            });
  std::vector<std::size_t> canonical(design.instances.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    canonical[order[rank]] = rank;
  }
  // Function ids relabel to the canonical rank of the function's first
  // instance (duplication maps several instances to one function).
  std::map<prof::FunctionId, std::size_t> fn_rank;
  for (std::size_t i = 0; i < design.instances.size(); ++i) {
    const prof::FunctionId fn = design.instances[i].function;
    const auto it = fn_rank.find(fn);
    if (it == fn_rank.end() || canonical[i] < it->second) {
      fn_rank[fn] = canonical[i];
    }
  }

  std::string out{"theta="};
  out += util::hexf(theta_seconds_per_byte);
  out += ';';
  if (design.noc.has_value()) {
    out += "mesh=";
    append(out, design.noc->mesh_width);
    out += 'x';
    append(out, design.noc->mesh_height);
    out += ';';
  } else {
    out += "mesh=none;";
  }
  for (const std::size_t index : order) {
    out += records[index];
    out += ';';
  }

  // Shared pairs and the parallel plan, renumbered and sorted.
  std::vector<std::string> lines;
  for (const core::SharedMemoryPairing& pair : design.shared_pairs) {
    std::string line{"s"};
    append(line, canonical[pair.producer_instance]);
    line += '>';
    append(line, canonical[pair.consumer_instance]);
    line += ':';
    append(line, pair.bytes.count());
    line += ':';
    line += pair.style == mem::SharingStyle::kDirect ? 'd' : 'x';
    lines.push_back(std::move(line));
  }
  for (const std::size_t inst : design.parallel.host_pipelined) {
    lines.push_back("p1:" + std::to_string(canonical[inst]));
  }
  for (const core::StreamedEdge& edge : design.parallel.streamed) {
    lines.push_back("p2:" + std::to_string(canonical[edge.producer_instance]) +
                    '>' + std::to_string(canonical[edge.consumer_instance]));
  }
  for (const std::size_t spec : design.parallel.duplicated_specs) {
    // Specs renumber through their function's canonical rank.
    lines.push_back("p3:" +
                    std::to_string(fn_rank[schedule.specs[spec].function]));
  }
  sort_unique(lines);
  for (const std::string& line : lines) {
    out += line;
    out += ';';
  }

  // Per-edge unique bytes between profiled functions, renumbered where a
  // function is instantiated (host functions keep a stable h<id> label:
  // they are never relabeled by Algorithm 1).
  if (schedule.graph != nullptr) {
    const auto append_end = [&fn_rank](std::string& line,
                                       prof::FunctionId fn) {
      const auto rank = fn_rank.find(fn);
      if (rank != fn_rank.end()) {
        line += 'k';
        append(line, rank->second);
      } else {
        line += 'h';
        append(line, fn);
      }
    };
    std::vector<std::string> edges;
    edges.reserve(schedule.graph->edges().size());
    for (const prof::CommEdge& edge : schedule.graph->edges()) {
      std::string line{"e"};
      append_end(line, edge.producer);
      line += '>';
      append_end(line, edge.consumer);
      line += ':';
      append(line, core::edge_volume(edge).count());
      edges.push_back(std::move(line));
    }
    sort_unique(edges);
    for (const std::string& edge : edges) {
      out += edge;
      out += ';';
    }
  }
  return out;
}

std::uint64_t congruence_key_of(const std::string& signature) {
  // splitmix64 spreads the FNV bits.
  return util::splitmix64(util::fnv1a64(signature));
}

TierEstimate CongruenceCache::get(
    std::uint64_t key, const std::function<TierEstimate()>& make) {
  std::shared_ptr<EstimateL2> l2;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
    l2 = l2_;
  }
  // Compute outside the lock: estimates for one key are identical
  // whichever thread wins, so concurrent duplicate work is waste, not a
  // correctness problem — and analytic estimates are cheap enough that a
  // per-key future would cost more than the occasional double compute.
  // The persistent tier is consulted first for the same reason: whatever
  // it returns is the value a fresh compute would produce.
  bool from_l2 = false;
  TierEstimate estimate;
  if (l2 != nullptr) {
    if (std::optional<TierEstimate> stored = l2->load(key)) {
      estimate = std::move(*stored);
      from_l2 = true;
    }
  }
  if (!from_l2) {
    estimate = make();
    estimate.congruence_key = key;
    if (l2 != nullptr) {
      l2->store(key, estimate);
    }
  }
  const std::lock_guard<std::mutex> lock{mutex_};
  ++misses_;
  if (from_l2) {
    ++l2_hits_;
  } else if (l2 != nullptr) {
    ++l2_stores_;
  }
  return entries_.emplace(key, std::move(estimate)).first->second;
}

void CongruenceCache::set_l2(std::shared_ptr<EstimateL2> l2) {
  const std::lock_guard<std::mutex> lock{mutex_};
  l2_ = std::move(l2);
}

std::uint64_t CongruenceCache::l2_hits() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return l2_hits_;
}

std::uint64_t CongruenceCache::l2_stores() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return l2_stores_;
}

std::uint64_t CongruenceCache::hits() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return hits_;
}

std::uint64_t CongruenceCache::misses() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return misses_;
}

std::size_t CongruenceCache::size() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return entries_.size();
}

void CongruenceCache::clear() {
  const std::lock_guard<std::mutex> lock{mutex_};
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
  l2_hits_ = 0;
  l2_stores_ = 0;
}

}  // namespace hybridic::tiers
