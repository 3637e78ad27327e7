#include "sys/engine/models.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/kernel_model.hpp"
#include "faults/injector.hpp"
#include "util/error.hpp"

namespace hybridic::sys::engine {

// ---------------------------------------------------------------------------
// SoftwareModel
// ---------------------------------------------------------------------------

StepOutcome SoftwareModel::run(const ScheduleStep& step) {
  const double span = static_cast<double>(step.sw_cycles.count()) * period_;
  StepOutcome outcome;
  outcome.start_seconds = t_;
  outcome.compute_start_seconds = t_;
  t_ += span;
  outcome.done_seconds = t_;
  outcome.compute_seconds = span;
  return outcome;
}

// ---------------------------------------------------------------------------
// BaselineModel
// ---------------------------------------------------------------------------

StepOutcome BaselineModel::host_step(std::uint32_t /*index*/,
                                     const ScheduleStep& step) {
  StepOutcome outcome;
  outcome.start_seconds = t_.seconds();
  outcome.compute_start_seconds = outcome.start_seconds;
  const Picoseconds span = ctx_->host_clock().span(step.sw_cycles);
  t_ += span;
  outcome.compute_seconds = span.seconds();
  outcome.done_seconds = t_.seconds();
  return outcome;
}

StepOutcome BaselineModel::kernel_step(std::uint32_t index,
                                       const ScheduleStep& step) {
  // Baseline kernel invocation: fetch everything, compute, write back
  // everything (Eq. 2 behaviour on the measured fabrics).
  const core::KernelQuantities q = core::derive_quantities(
      ctx_->graph(), step.function, ctx_->hw_set());
  mem::Bram& bram = ctx_->platform().bram(step.spec_index);

  Pending fetch;
  bus_.fetch(index, step.name + "/fetch", t_, q.total_in(), bram, fetch);
  wait_all(ctx_->platform(), {&fetch});
  const Picoseconds compute_start = std::max(fetch.at, t_);
  const Picoseconds compute_end =
      compute_start + ctx_->kernel_clock().span(step.hw_cycles);

  Pending writeback;
  bus_.writeback(index, step.name + "/writeback", compute_end, q.total_out(),
                 bram, writeback);
  wait_all(ctx_->platform(), {&writeback});
  const Picoseconds done = std::max(writeback.at, compute_end);

  StepOutcome outcome;
  outcome.start_seconds = t_.seconds();
  const double compute = (compute_end - compute_start).seconds();
  const double comm = (done - t_).seconds() - compute;
  outcome.compute_seconds = compute;
  outcome.comm_seconds = std::max(0.0, comm);
  outcome.compute_start_seconds = compute_start.seconds();
  t_ = done;
  outcome.done_seconds = t_.seconds();
  return outcome;
}

// ---------------------------------------------------------------------------
// DesignedModel
// ---------------------------------------------------------------------------

DesignedModel::DesignedModel(ExecContext& ctx, EdgeRouter& router,
                             ExecTrace* trace)
    : ctx_(&ctx),
      router_(&router),
      trace_(trace),
      bus_(ctx, trace),
      shared_(trace),
      noc_(ctx, trace),
      stream_overhead_(
          from_seconds(ctx.platform().config().stream_overhead_seconds)),
      dup_overhead_(from_seconds(
          ctx.platform().config().duplication_overhead_seconds)),
      recs_(ctx.instance_count()),
      executed_(ctx.instance_count(), false) {}

void DesignedModel::note_degraded(std::uint32_t step_index,
                                  const std::string& step_name,
                                  std::size_t producer_instance,
                                  std::size_t consumer_instance) {
  if (!degraded_logged_.insert({producer_instance, consumer_instance})
           .second) {
    return;  // Already reported for this edge.
  }
  Platform& platform = ctx_->platform();
  if (faults::FaultInjector* injector = platform.fault_injector()) {
    ++injector->stats().degraded_edges;
  }
  if (trace_ != nullptr) {
    const double now = platform.engine().now().seconds();
    trace_->record({EventKind::kReroute, Fabric::kBus, step_index, 0, now,
                    now,
                    step_name + "/degrade#" +
                        std::to_string(producer_instance) + "->" +
                        std::to_string(consumer_instance) + " noc->bus"});
  }
}

StepOutcome DesignedModel::host_step(std::uint32_t index,
                                     const ScheduleStep& step) {
  const AppSchedule& schedule = ctx_->schedule();
  // Host steps serialize on the host and gate on the write-back of any
  // kernel whose output they consume.
  Picoseconds ready = t_;
  for (const prof::CommEdge& edge : ctx_->graph().edges()) {
    if (edge.consumer != step.function || edge.producer == edge.consumer ||
        ctx_->hw_set().count(edge.producer) == 0) {
      continue;
    }
    for (std::size_t s = 0; s < schedule.specs.size(); ++s) {
      if (schedule.specs[s].function != edge.producer) {
        continue;
      }
      for (const std::size_t pi : ctx_->instances_of_spec(s)) {
        if (executed_[pi]) {
          ready = std::max(ready, recs_[pi].done);
        }
      }
    }
  }
  if (trace_ != nullptr && ready > t_) {
    trace_->record({EventKind::kStall, Fabric::kHost, index, 0, t_.seconds(),
                    ready.seconds(), step.name + "/wait-dep"});
  }
  StepOutcome outcome;
  outcome.start_seconds = ready.seconds();
  outcome.compute_start_seconds = outcome.start_seconds;
  const Picoseconds span = ctx_->host_clock().span(step.sw_cycles);
  t_ = ready + span;
  app_end_ = std::max(app_end_, t_);
  outcome.compute_seconds = span.seconds();
  outcome.done_seconds = t_.seconds();
  return outcome;
}

StepOutcome DesignedModel::kernel_step(std::uint32_t index,
                                       const ScheduleStep& step) {
  const AppSchedule& schedule = ctx_->schedule();
  const prof::CommGraph& graph = ctx_->graph();
  const core::DesignResult& design = *ctx_->design();
  Platform& platform = ctx_->platform();
  const sim::ClockDomain& kernel = ctx_->kernel_clock();

  const std::vector<std::size_t>& group =
      ctx_->instances_of_spec(step.spec_index);

  // ---- Gather per-instance inputs and gates. ----
  std::vector<Plan> plans;
  plans.reserve(group.size());

  for (const std::size_t ci : group) {
    Plan plan;
    plan.instance = ci;
    plan.gate = t_;
    plan.case1 = router_->host_pipelined(ci);
    const double share_c = design.instances[ci].work_share;

    for (const prof::CommEdge& edge : graph.edges()) {
      if (edge.consumer != step.function || edge.producer == edge.consumer) {
        continue;
      }
      if (ctx_->hw_set().count(edge.producer) == 0) {
        // Host-produced input: fetched over the bus.
        plan.host_in += scale_bytes(core::edge_volume(edge), share_c);
        continue;
      }
      const core::SharedMemoryPairing* pair =
          router_->shared_pair(edge.producer, edge.consumer);
      if (pair != nullptr && pair->consumer_instance == ci &&
          !executed_[pair->producer_instance]) {
        // Backward edge (cyclic graph, e.g. fluid's next-iteration
        // feedback): the data is already resident from the previous
        // aggregate invocation; nothing to gate on.
        continue;
      }
      if (pair != nullptr && pair->consumer_instance == ci) {
        // Shared local memory: data already in place when the producer
        // finishes (or half-way through it when streamed).
        const std::size_t pi = pair->producer_instance;
        plan.gate = std::max(
            plan.gate,
            shared_.handoff(index,
                            step.name + "/shared#" + std::to_string(pi) +
                                "->" + std::to_string(ci),
                            recs_[pi].compute_start, recs_[pi].compute_end,
                            recs_[pi].tau_eff, kernel.span(step.hw_cycles),
                            router_->streamed(pi, ci), stream_overhead_,
                            core::edge_volume(edge)));
        continue;
      }
      // Kernel producer, not shared: NoC if both ends are attached,
      // otherwise fall back to a bus round trip.
      const std::size_t pspec = ctx_->spec_of(edge.producer,
                                              "producer function");
      for (const std::size_t pi : ctx_->instances_of_spec(pspec)) {
        if (!executed_[pi]) {
          // Backward (feedback) edge: previous-iteration data is already
          // in place; the producer's own run accounts for the transfer.
          continue;
        }
        if (router_->noc_usable(pi, ci)) {
          if (router_->streamed(pi, ci)) {
            plan.gate = std::max(
                plan.gate,
                SharedMemoryPolicy::streamed_gate(
                    recs_[pi].compute_start, recs_[pi].compute_end,
                    recs_[pi].tau_eff, kernel.span(step.hw_cycles),
                    stream_overhead_));
          } else {
            const auto it = delivery_.find({pi, ci});
            sim_assert(it != delivery_.end(),
                       "consumer ran before NoC delivery was recorded");
            plan.gate = std::max(
                plan.gate, std::max(it->second, recs_[pi].compute_end));
          }
        } else {
          // Fallback: producer wrote back over the bus (accounted on the
          // producer side); this instance fetches its share.
          if (router_->noc_degraded(pi, ci)) {
            note_degraded(index, step.name, pi, ci);
          }
          const double share_p = design.instances[pi].work_share;
          plan.host_in +=
              scale_bytes(core::edge_volume(edge), share_p * share_c);
          plan.gate = std::max(plan.gate, recs_[pi].done);
        }
      }
    }

    // Outputs: host-consumed (and unreachable kernel-consumed) bytes go
    // back over the bus.
    for (const prof::CommEdge& edge : graph.edges()) {
      if (edge.producer != step.function || edge.producer == edge.consumer) {
        continue;
      }
      if (ctx_->hw_set().count(edge.consumer) == 0) {
        plan.host_out += scale_bytes(core::edge_volume(edge), share_c);
        continue;
      }
      const core::SharedMemoryPairing* pair =
          router_->shared_pair(edge.producer, edge.consumer);
      if (pair != nullptr && pair->producer_instance == ci) {
        continue;  // In place.
      }
      // Consumer instances not reachable via NoC force a bus write-back.
      const std::size_t cspec = ctx_->spec_of(edge.consumer,
                                              "consumer function");
      for (const std::size_t ci2 : ctx_->instances_of_spec(cspec)) {
        if (!router_->noc_usable(ci, ci2)) {
          if (router_->noc_degraded(ci, ci2)) {
            note_degraded(index, step.name, ci, ci2);
          }
          const double share_c2 = design.instances[ci2].work_share;
          plan.host_out +=
              scale_bytes(core::edge_volume(edge), share_c * share_c2);
        }
      }
    }

    plans.push_back(std::move(plan));
  }

  // ---- Phase A: first fetches. ----
  std::vector<Pending*> ops;
  for (Plan& plan : plans) {
    mem::Bram& bram = platform.bram(plan.instance);
    const Bytes first =
        plan.case1 ? Bytes{plan.host_in.count() / 2} : plan.host_in;
    bus_.fetch(index,
               step.name + "/fetch#" + std::to_string(plan.instance),
               plan.gate, first, bram, plan.fetch1);
    ops.push_back(&plan.fetch1);
  }
  wait_all(platform, ops);

  // ---- Phase B: second fetches (case 1) and compute-window timing. ----
  ops.clear();
  for (Plan& plan : plans) {
    if (plan.case1) {
      mem::Bram& bram = platform.bram(plan.instance);
      const Bytes second =
          Bytes{plan.host_in.count() - plan.host_in.count() / 2};
      bus_.fetch(index,
                 step.name + "/fetch2#" + std::to_string(plan.instance),
                 plan.fetch1.at, second, bram, plan.fetch2);
      ops.push_back(&plan.fetch2);
    }
  }
  wait_all(platform, ops);

  for (Plan& plan : plans) {
    InstRec& rec = recs_[plan.instance];
    const core::KernelInstance& inst = design.instances[plan.instance];
    Picoseconds tau = Picoseconds{static_cast<std::uint64_t>(
        static_cast<double>(kernel.span(step.hw_cycles).count()) *
        inst.work_share)};
    if (router_->duplicated_spec(inst.spec_index)) {
      tau += dup_overhead_;
    }
    if (plan.case1) {
      tau += stream_overhead_;
    }
    rec.tau_eff = tau;
    rec.gate = plan.gate;
    rec.compute_start = std::max(plan.fetch1.at, plan.gate);
    if (plan.case1) {
      // Second-half compute cannot finish before the second half of the
      // input arrived.
      rec.compute_end = std::max(rec.compute_start + tau,
                                 plan.fetch2.at + Picoseconds{tau.count() / 2});
    } else {
      rec.compute_end = rec.compute_start + tau;
    }
  }

  // ---- Phase C: NoC sends (overlapped with compute) and write-backs. ----
  ops.clear();
  for (Plan& plan : plans) {
    InstRec& rec = recs_[plan.instance];
    const std::size_t pi = plan.instance;
    const double share_p = design.instances[pi].work_share;

    // Sends to every NoC-reachable consumer instance.
    for (const prof::CommEdge& edge : graph.edges()) {
      if (edge.producer != step.function || edge.producer == edge.consumer ||
          ctx_->hw_set().count(edge.consumer) == 0) {
        continue;
      }
      const core::SharedMemoryPairing* pair =
          router_->shared_pair(edge.producer, edge.consumer);
      if (pair != nullptr && pair->producer_instance == pi) {
        continue;
      }
      for (std::size_t s = 0; s < schedule.specs.size(); ++s) {
        if (schedule.specs[s].function != edge.consumer) {
          continue;
        }
        for (const std::size_t ci : ctx_->instances_of_spec(s)) {
          if (!router_->noc_usable(pi, ci)) {
            continue;
          }
          const double share_c = design.instances[ci].work_share;
          const Bytes bytes =
              scale_bytes(core::edge_volume(edge), share_p * share_c);
          const std::uint32_t src =
              *platform.noc_node(pi, core::NocNodeKind::kKernel);
          const std::uint32_t dst =
              *platform.noc_node(ci, core::NocNodeKind::kLocalMemory);
          plan.sends.emplace_back();
          NocSendOp& op = plan.sends.back();
          const Picoseconds when =
              std::max(rec.compute_start, platform.engine().now());
          const auto key = std::make_pair(pi, ci);
          noc_.send(index,
                    step.name + "/noc#" + std::to_string(pi) + "->" +
                        std::to_string(ci),
                    src, dst, bytes, when, op,
                    [this, key](Picoseconds at) { delivery_[key] = at; });
        }
      }
    }

    // Write-backs of host-bound output.
    mem::Bram& bram = platform.bram(plan.instance);
    if (plan.case1) {
      const Bytes half1{plan.host_out.count() / 2};
      const Bytes half2{plan.host_out.count() - half1.count()};
      const Picoseconds wb1_at =
          std::max(rec.compute_start,
                   rec.compute_end - Picoseconds{rec.tau_eff.count() / 2});
      bus_.writeback(index,
                     step.name + "/wb#" + std::to_string(plan.instance),
                     wb1_at, half1, bram, plan.wb1);
      bus_.writeback(index,
                     step.name + "/wb2#" + std::to_string(plan.instance),
                     rec.compute_end, half2, bram, plan.wb2);
      ops.push_back(&plan.wb1);
      ops.push_back(&plan.wb2);
    } else {
      bus_.writeback(index,
                     step.name + "/wb#" + std::to_string(plan.instance),
                     rec.compute_end, plan.host_out, bram, plan.wb1);
      ops.push_back(&plan.wb1);
    }
    for (NocSendOp& send : plan.sends) {
      ops.push_back(&send.op);
    }
  }
  wait_all(platform, ops);

  // ---- Close the group. ----
  // Duplicated instances run concurrently, so the group's kernel time is
  // wall-clock: compute attribution is the longest instance compute
  // window; everything else exposed within the group span is
  // communication.
  Picoseconds group_done{0};
  Picoseconds group_gate = Picoseconds{UINT64_MAX};
  Picoseconds group_compute_ps{0};
  Picoseconds group_compute_start = Picoseconds{UINT64_MAX};
  for (Plan& plan : plans) {
    InstRec& rec = recs_[plan.instance];
    rec.done = std::max(rec.compute_end, plan.wb1.at);
    if (plan.case1) {
      rec.done = std::max(rec.done, plan.wb2.at);
    }
    for (const NocSendOp& send : plan.sends) {
      app_end_ = std::max(app_end_, send.op.at);
    }
    group_done = std::max(group_done, rec.done);
    group_gate = std::min(group_gate, rec.gate);
    group_compute_ps = std::max(group_compute_ps, rec.tau_eff);
    group_compute_start = std::min(group_compute_start, rec.compute_start);
    executed_[plan.instance] = true;
  }
  const double group_compute = group_compute_ps.seconds();
  const double group_comm =
      std::max(0.0, (group_done - group_gate).seconds() - group_compute);
  // The host cursor does not advance: kernels run decoupled from the host
  // (§IV-A3, "the NoC ensures the parallelism of the processing
  // elements"); downstream steps gate through their data dependencies.
  app_end_ = std::max(app_end_, group_done);

  StepOutcome outcome;
  outcome.start_seconds = group_gate.seconds();
  outcome.done_seconds = group_done.seconds();
  outcome.compute_seconds = group_compute;
  outcome.comm_seconds = group_comm;
  outcome.compute_start_seconds = plans.empty()
                                      ? outcome.start_seconds
                                      : group_compute_start.seconds();
  return outcome;
}

// ---------------------------------------------------------------------------
// CrossbarModel
// ---------------------------------------------------------------------------

StepOutcome CrossbarModel::host_step(std::uint32_t index,
                                     const ScheduleStep& step) {
  Picoseconds ready = t_;
  for (const prof::CommEdge& edge : ctx_->graph().edges()) {
    if (edge.consumer != step.function || edge.producer == edge.consumer ||
        ctx_->hw_set().count(edge.producer) == 0) {
      continue;
    }
    const Rec& rec =
        recs_[ctx_->spec_of(edge.producer, "producer function")];
    if (rec.executed) {
      ready = std::max(ready, rec.done);
    }
  }
  if (trace_ != nullptr && ready > t_) {
    trace_->record({EventKind::kStall, Fabric::kHost, index, 0, t_.seconds(),
                    ready.seconds(), step.name + "/wait-dep"});
  }
  const Picoseconds span = ctx_->host_clock().span(step.sw_cycles);
  StepOutcome outcome;
  outcome.start_seconds = ready.seconds();
  outcome.compute_start_seconds = outcome.start_seconds;
  t_ = ready + span;
  app_end_ = std::max(app_end_, t_);
  outcome.compute_seconds = span.seconds();
  outcome.done_seconds = t_.seconds();
  return outcome;
}

StepOutcome CrossbarModel::kernel_step(std::uint32_t index,
                                       const ScheduleStep& step) {
  const prof::CommGraph& graph = ctx_->graph();
  Platform& platform = ctx_->platform();
  Rec& rec = recs_[step.spec_index];

  // Gate on the host's progress plus data dependencies: a kernel input
  // written through the crossbar is ready when the producer finished
  // streaming it (max of producer end and the port-level write).
  Picoseconds gate = t_;
  Bytes host_in{0};
  for (const prof::CommEdge& edge : graph.edges()) {
    if (edge.consumer != step.function || edge.producer == edge.consumer) {
      continue;
    }
    if (ctx_->hw_set().count(edge.producer) == 0) {
      host_in += core::edge_volume(edge);
      continue;
    }
    const Rec& producer =
        recs_[ctx_->spec_of(edge.producer, "producer function")];
    if (!producer.executed) {
      continue;  // Backward/feedback edge: data already resident.
    }
    gate = std::max(gate,
                    std::max(producer.compute_end, producer.delivered));
  }

  Bytes host_out{0};
  for (const prof::CommEdge& edge : graph.edges()) {
    if (edge.producer != step.function || edge.producer == edge.consumer) {
      continue;
    }
    if (ctx_->hw_set().count(edge.consumer) == 0) {
      host_out += core::edge_volume(edge);
    }
  }

  // Host input over the bus.
  Pending fetch;
  bus_.fetch(index, step.name + "/fetch", gate, host_in,
             platform.bram(step.spec_index), fetch);
  wait_all(platform, {&fetch});
  rec.compute_start = std::max(fetch.at, gate);
  rec.compute_end =
      rec.compute_start + ctx_->kernel_clock().span(step.hw_cycles);

  // Stream kernel-bound outputs through the crossbar during compute: each
  // consumer's BRAM port B is reserved from compute start.
  rec.delivered = rec.compute_end;
  for (const prof::CommEdge& edge : graph.edges()) {
    if (edge.producer != step.function || edge.producer == edge.consumer ||
        ctx_->hw_set().count(edge.consumer) == 0) {
      continue;
    }
    const std::size_t target =
        ctx_->spec_of(edge.consumer, "consumer function");
    const Picoseconds write_done = crossbar_.stream(
        index, step.name + "/xbar->" + std::to_string(target),
        static_cast<std::uint32_t>(step.spec_index),
        static_cast<std::uint32_t>(target), rec.compute_start,
        core::edge_volume(edge));
    rec.delivered = std::max(rec.delivered, write_done);
  }

  // Host-bound output over the bus.
  Pending writeback;
  bus_.writeback(index, step.name + "/writeback", rec.compute_end, host_out,
                 platform.bram(step.spec_index), writeback);
  wait_all(platform, {&writeback});
  rec.done = std::max(rec.compute_end, writeback.at);
  rec.executed = true;

  app_end_ = std::max(app_end_, std::max(rec.done, rec.delivered));
  const double compute = ctx_->kernel_clock().span(step.hw_cycles).seconds();
  const double comm =
      std::max(0.0, (rec.done - gate).seconds() - compute);
  StepOutcome outcome;
  outcome.start_seconds = gate.seconds();
  outcome.compute_start_seconds = rec.compute_start.seconds();
  outcome.compute_seconds = compute;
  outcome.comm_seconds = comm;
  outcome.done_seconds = rec.done.seconds();
  return outcome;
}

}  // namespace hybridic::sys::engine
