#include "core/interconnect_design.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "core/noc_placement.hpp"
#include "util/error.hpp"

namespace hybridic::core {

namespace {

double cycles_to_seconds(Cycles c, Frequency clock) {
  return static_cast<double>(c.count()) / static_cast<double>(clock.hertz());
}

/// The HW function set plus the function->spec map (shared by the greedy
/// pass and the builder; both must agree on it exactly).
struct SpecIndex {
  std::set<prof::FunctionId> hw_set;
  std::map<prof::FunctionId, std::size_t> spec_of_function;
};

SpecIndex index_specs(const DesignInput& input) {
  SpecIndex index;
  for (std::size_t s = 0; s < input.kernels.size(); ++s) {
    index.hw_set.insert(input.kernels[s].function);
    if (!index.spec_of_function.emplace(input.kernels[s].function, s)
             .second) {
      throw ConfigError{"two kernel specs share one function: " +
                        input.kernels[s].name};
    }
  }
  return index;
}

std::vector<KernelQuantities> full_quantities(const DesignInput& input,
                                              const SpecIndex& index) {
  std::vector<KernelQuantities> quantities(input.kernels.size());
  for (std::size_t s = 0; s < input.kernels.size(); ++s) {
    quantities[s] = derive_quantities(*input.graph, input.kernels[s].function,
                                      index.hw_set);
  }
  return quantities;
}

}  // namespace

DesignDecisions greedy_decisions(const DesignInput& input) {
  require(input.graph != nullptr, "design input needs a profile graph");
  require(!input.kernels.empty(), "design input needs at least one kernel");
  const prof::CommGraph& graph = *input.graph;
  const SpecIndex index = index_specs(input);

  DesignDecisions decisions;

  // ---- Lines 2-6: duplication of the most computationally intensive
  // kernels (case 3), budget permitting. ----
  std::vector<bool> duplicated(input.kernels.size(), false);
  if (input.enable_duplication) {
    std::vector<std::size_t> by_tau(input.kernels.size());
    std::iota(by_tau.begin(), by_tau.end(), 0);
    std::stable_sort(by_tau.begin(), by_tau.end(),
                     [&input](std::size_t a, std::size_t b) {
                       return input.kernels[a].hw_compute_cycles >
                              input.kernels[b].hw_compute_cycles;
                     });
    std::uint32_t budget = input.duplication_area_budget_luts;
    for (const std::size_t s : by_tau) {
      const KernelSpec& spec = input.kernels[s];
      if (!spec.duplicable) {
        continue;
      }
      const double tau =
          cycles_to_seconds(spec.hw_compute_cycles, input.kernel_clock);
      if (delta_duplication(tau, input.duplication_overhead_seconds) <= 0.0) {
        continue;
      }
      if (spec.area_luts > budget) {
        continue;  // "resource is available" fails.
      }
      budget -= spec.area_luts;
      duplicated[s] = true;
      decisions.duplicated_specs.push_back(s);
    }
  }

  // ---- Lines 8-13: shared-local-memory pairings. ----
  if (input.enable_shared_memory) {
    const std::vector<KernelQuantities> spec_quantities =
        full_quantities(input, index);
    // Consider larger transfers first so the greedy pairing removes the
    // most bus traffic.
    std::vector<prof::CommEdge> candidates;
    for (const prof::CommEdge& edge : graph.edges()) {
      if (edge.producer == edge.consumer) {
        continue;
      }
      if (index.hw_set.count(edge.producer) == 0 ||
          index.hw_set.count(edge.consumer) == 0) {
        continue;
      }
      candidates.push_back(edge);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const prof::CommEdge& a, const prof::CommEdge& b) {
                       return a.bytes > b.bytes;
                     });
    std::set<std::size_t> paired_specs;
    for (const prof::CommEdge& edge : candidates) {
      const std::size_t ps = index.spec_of_function.at(edge.producer);
      const std::size_t cs = index.spec_of_function.at(edge.consumer);
      if (duplicated[ps] || duplicated[cs]) {
        continue;  // A shared BRAM cannot serve two producer copies.
      }
      if (paired_specs.count(ps) > 0 || paired_specs.count(cs) > 0) {
        continue;  // One sharing per kernel (BRAM port budget).
      }
      // Exclusivity (line 9): D^K_out(i) = D^K_in(j) = D_ij.
      if (spec_quantities[ps].kernel_out != edge_volume(edge) ||
          spec_quantities[cs].kernel_in != edge_volume(edge)) {
        continue;
      }
      SharedPairDecision pairing;
      pairing.producer_spec = ps;
      pairing.consumer_spec = cs;
      pairing.bytes = edge_volume(edge);
      // §IV-A1: no crossbar when the consumer never talks to the host.
      const bool consumer_host_free =
          spec_quantities[cs].host_in.count() == 0 &&
          spec_quantities[cs].host_out.count() == 0;
      pairing.style = consumer_host_free ? mem::SharingStyle::kDirect
                                         : mem::SharingStyle::kCrossbar;
      decisions.shared_pairs.push_back(pairing);
      paired_specs.insert(ps);
      paired_specs.insert(cs);
    }
  }

  return decisions;
}

DesignResult build_design(const DesignInput& input,
                          const DesignDecisions& decisions) {
  require(input.graph != nullptr, "design input needs a profile graph");
  require(!input.kernels.empty(), "design input needs at least one kernel");
  const prof::CommGraph& graph = *input.graph;
  const SpecIndex index = index_specs(input);

  DesignResult result;

  std::vector<bool> duplicated(input.kernels.size(), false);
  for (const std::size_t s : decisions.duplicated_specs) {
    require(s < input.kernels.size(),
            "duplication decision names a missing spec");
    duplicated[s] = true;
    result.parallel.duplicated_specs.push_back(s);
  }

  // ---- Instances (after duplication). ----
  std::map<std::size_t, std::vector<std::size_t>> instances_of_spec;
  for (std::size_t s = 0; s < input.kernels.size(); ++s) {
    const std::uint32_t copies = duplicated[s] ? 2 : 1;
    for (std::uint32_t c = 0; c < copies; ++c) {
      KernelInstance inst;
      inst.spec_index = s;
      inst.function = input.kernels[s].function;
      inst.work_share = 1.0 / copies;
      inst.name = input.kernels[s].name;
      if (copies > 1) {
        inst.name += '#';
        inst.name += std::to_string(c);
      }
      instances_of_spec[s].push_back(result.instances.size());
      result.instances.push_back(std::move(inst));
    }
  }

  // ---- Line 7: the quantitative communication profile (G). ----
  const std::vector<KernelQuantities> spec_quantities =
      full_quantities(input, index);

  // ---- Realize the shared-local-memory decisions. ----
  std::set<std::pair<prof::FunctionId, prof::FunctionId>> excluded_edges;
  for (const SharedPairDecision& decision : decisions.shared_pairs) {
    require(decision.producer_spec < input.kernels.size() &&
                decision.consumer_spec < input.kernels.size(),
            "shared-pair decision names a missing spec");
    SharedMemoryPairing pairing;
    pairing.producer_instance =
        instances_of_spec.at(decision.producer_spec).front();
    pairing.consumer_instance =
        instances_of_spec.at(decision.consumer_spec).front();
    pairing.bytes = decision.bytes;
    pairing.style = decision.style;
    result.shared_pairs.push_back(pairing);
    excluded_edges.insert({input.kernels[decision.producer_spec].function,
                           input.kernels[decision.consumer_spec].function});
  }

  // ---- Residual quantities, classification, adaptive mapping. ----
  std::vector<KernelQuantities> residual(input.kernels.size());
  for (std::size_t s = 0; s < input.kernels.size(); ++s) {
    residual[s] = derive_quantities(graph, input.kernels[s].function,
                                    index.hw_set, excluded_edges);
  }
  for (KernelInstance& inst : result.instances) {
    inst.quantities = spec_quantities[inst.spec_index];
    inst.residual = residual[inst.spec_index];
    inst.comm_class = classify(inst.residual);
    const std::optional<InterconnectClass> forced =
        inst.spec_index < decisions.mapping_override.size()
            ? decisions.mapping_override[inst.spec_index]
            : std::nullopt;
    if (forced.has_value()) {
      // A decision, not a derivation: build it even when infeasible so the
      // caller's legality gate (validate_design, the DSE oracles) is what
      // rejects it — the search harness depends on that separation.
      inst.mapping = *forced;
    } else if (input.enable_adaptive_mapping) {
      inst.mapping = adaptive_map(inst.comm_class);
      sim_assert(is_feasible(inst.mapping),
                 "adaptive mapping produced the infeasible {K1,M2} case");
    } else {
      // Naive "map everything" used by the NoC-only comparison system:
      // every kernel and every local memory joins the NoC as well as the
      // system infrastructure.
      inst.mapping = InterconnectClass{KernelConn::kK2, MemConn::kM3};
    }
  }

  // ---- Line 14: map the remaining kernels/memories to the NoC. ----
  std::vector<NocAttachment> attachments;
  for (std::size_t i = 0; i < result.instances.size(); ++i) {
    const KernelInstance& inst = result.instances[i];
    if (inst.mapping.kernel == KernelConn::kK2) {
      attachments.push_back(NocAttachment{i, NocNodeKind::kKernel, 0});
    }
    if (inst.mapping.memory == MemConn::kM2 ||
        inst.mapping.memory == MemConn::kM3) {
      attachments.push_back(NocAttachment{i, NocNodeKind::kLocalMemory, 0});
    }
  }

  // Residual kernel->kernel traffic decides whether a NoC exists at all —
  // unless a mapping override explicitly asked for NoC fabric.
  std::uint64_t residual_kernel_bytes = 0;
  for (const KernelQuantities& q : residual) {
    residual_kernel_bytes += q.kernel_out.count();
  }

  if (!attachments.empty() &&
      (residual_kernel_bytes > 0 || !input.enable_adaptive_mapping ||
       decisions.any_mapping_override())) {
    // Build the placement problem: producer-kernel -> consumer-memory
    // traffic, with duplicated instances splitting their function's bytes.
    std::map<std::pair<std::size_t, NocNodeKind>, std::uint32_t>
        attachment_index;
    for (std::uint32_t a = 0; a < attachments.size(); ++a) {
      attachment_index[{attachments[a].instance, attachments[a].kind}] = a;
    }
    PlacementProblem problem;
    problem.attachment_count =
        static_cast<std::uint32_t>(attachments.size());
    for (const prof::CommEdge& edge : graph.edges()) {
      if (edge.producer == edge.consumer ||
          index.hw_set.count(edge.producer) == 0 ||
          index.hw_set.count(edge.consumer) == 0 ||
          excluded_edges.count({edge.producer, edge.consumer}) > 0) {
        continue;
      }
      for (const std::size_t pi : instances_of_spec.at(
               index.spec_of_function.at(edge.producer))) {
        for (const std::size_t ci : instances_of_spec.at(
                 index.spec_of_function.at(edge.consumer))) {
          const auto pk = attachment_index.find({pi, NocNodeKind::kKernel});
          const auto cm =
              attachment_index.find({ci, NocNodeKind::kLocalMemory});
          if (pk == attachment_index.end() ||
              cm == attachment_index.end()) {
            continue;
          }
          const double share = result.instances[pi].work_share *
                               result.instances[ci].work_share;
          const auto split_bytes = static_cast<std::uint64_t>(
              static_cast<double>(edge_volume(edge).count()) * share);
          const std::uint32_t a = std::min(pk->second, cm->second);
          const std::uint32_t b = std::max(pk->second, cm->second);
          if (a != b && split_bytes > 0) {
            problem.traffic.emplace_back(a, b, split_bytes);
          }
        }
      }
    }
    const PlacementResult placement = place_attachments(problem);
    NocPlan plan;
    plan.mesh_width = placement.mesh.width();
    plan.mesh_height = placement.mesh.height();
    for (std::uint32_t a = 0; a < attachments.size(); ++a) {
      attachments[a].node = placement.node_of[a];
    }
    plan.attachments = std::move(attachments);
    result.noc = std::move(plan);
  }

  // ---- Line 15: parallel solutions (cases 1 & 2). ----
  if (input.enable_parallel) {
    for (std::size_t i = 0; i < result.instances.size(); ++i) {
      const KernelInstance& inst = result.instances[i];
      const KernelSpec& spec = input.kernels[inst.spec_index];
      if (!spec.streaming) {
        continue;
      }
      const double tau =
          cycles_to_seconds(spec.hw_compute_cycles, input.kernel_clock) *
          inst.work_share;
      KernelQuantities scaled = inst.residual;
      scaled.host_in = Bytes{static_cast<std::uint64_t>(
          static_cast<double>(scaled.host_in.count()) * inst.work_share)};
      scaled.host_out = Bytes{static_cast<std::uint64_t>(
          static_cast<double>(scaled.host_out.count()) * inst.work_share)};
      if (delta_pipeline_host(scaled, tau, input.theta,
                              input.stream_overhead_seconds) > 0.0) {
        result.parallel.host_pipelined.push_back(i);
      }
    }
    for (const prof::CommEdge& edge : graph.edges()) {
      if (edge.producer == edge.consumer ||
          index.hw_set.count(edge.producer) == 0 ||
          index.hw_set.count(edge.consumer) == 0) {
        continue;
      }
      const std::size_t ps = index.spec_of_function.at(edge.producer);
      const std::size_t cs = index.spec_of_function.at(edge.consumer);
      if (!input.kernels[ps].streaming || !input.kernels[cs].streaming) {
        continue;
      }
      const double tau_p =
          cycles_to_seconds(input.kernels[ps].hw_compute_cycles,
                            input.kernel_clock);
      const double tau_c =
          cycles_to_seconds(input.kernels[cs].hw_compute_cycles,
                            input.kernel_clock);
      if (delta_pipeline_kernels(tau_p, tau_c,
                                 input.stream_overhead_seconds) <= 0.0) {
        continue;
      }
      for (const std::size_t pi : instances_of_spec.at(ps)) {
        for (const std::size_t ci : instances_of_spec.at(cs)) {
          result.parallel.streamed.push_back(StreamedEdge{pi, ci});
        }
      }
    }
  }

  // ---- Analytical estimate (Eq. 2 + Δ terms). ----
  DesignEstimate& est = result.estimate;
  for (std::size_t s = 0; s < input.kernels.size(); ++s) {
    const double tau = cycles_to_seconds(input.kernels[s].hw_compute_cycles,
                                         input.kernel_clock);
    est.baseline_seconds +=
        baseline_kernel_times(spec_quantities[s], tau, input.theta).total();
  }
  for (const SharedMemoryPairing& pair : result.shared_pairs) {
    est.delta_shared_memory_seconds +=
        delta_shared_memory(pair.bytes, input.theta);
  }
  if (result.noc.has_value()) {
    est.delta_noc_seconds = delta_noc(residual, input.theta);
  }
  for (const std::size_t i : result.parallel.host_pipelined) {
    const KernelInstance& inst = result.instances[i];
    const double tau =
        cycles_to_seconds(input.kernels[inst.spec_index].hw_compute_cycles,
                          input.kernel_clock) *
        inst.work_share;
    est.delta_parallel_seconds += std::max(
        0.0, delta_pipeline_host(inst.residual, tau, input.theta,
                                 input.stream_overhead_seconds));
  }
  for (const StreamedEdge& edge : result.parallel.streamed) {
    const double tau_p = cycles_to_seconds(
        input.kernels[result.instances[edge.producer_instance].spec_index]
            .hw_compute_cycles,
        input.kernel_clock);
    const double tau_c = cycles_to_seconds(
        input.kernels[result.instances[edge.consumer_instance].spec_index]
            .hw_compute_cycles,
        input.kernel_clock);
    est.delta_parallel_seconds += std::max(
        0.0, delta_pipeline_kernels(tau_p, tau_c,
                                    input.stream_overhead_seconds));
  }
  for (const std::size_t s : result.parallel.duplicated_specs) {
    const double tau = cycles_to_seconds(input.kernels[s].hw_compute_cycles,
                                         input.kernel_clock);
    est.delta_duplication_seconds += std::max(
        0.0,
        delta_duplication(tau, input.duplication_overhead_seconds));
  }

  return result;
}

DesignResult design_interconnect(const DesignInput& input) {
  return build_design(input, greedy_decisions(input));
}

}  // namespace hybridic::core
