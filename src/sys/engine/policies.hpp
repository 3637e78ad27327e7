// Fabric policies: the engine's data-movement implementations. A variant
// model walks the schedule; every byte it moves goes through one of these
// policies, which time the movement on the simulated fabric (or the
// analytic model where that is the right fidelity) and record typed events
// into the run's ExecTrace. Host-only work moves nothing: the variant
// models time it on the host clock themselves.
//
//  - BusDmaPolicy:       PLB bus + DMA block transfers (host traffic and
//                        the fallback for unreachable kernel pairs).
//  - SharedMemoryPolicy: zero-copy shared local memories, optionally
//                        streamed (§IV-A3 case 2).
//  - NocPolicy:          the wormhole mesh NoC (flit-level simulation plus
//                        the analytic idle-latency oracle).
//  - CrossbarPolicy:     the full-crossbar comparison fabric.
//  - InterBoardLinkPolicy: DMA over the inter-board serial links of a
//                        multi-FPGA platform (chain/ring/mesh of boards).
//
// Adding a new fabric class (e.g. an inter-FPGA MPI link or a collective
// offload engine) means adding one policy here and composing it per-edge —
// not forking another executor.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "mem/full_crossbar.hpp"
#include "sys/engine/busy_until.hpp"
#include "sys/engine/context.hpp"
#include "sys/engine/ops.hpp"
#include "sys/engine/trace.hpp"

namespace hybridic::sys::engine {

/// PLB bus + DMA block transfers.
class BusDmaPolicy {
public:
  BusDmaPolicy(ExecContext& ctx, ExecTrace* trace)
      : ctx_(&ctx), trace_(trace) {}

  /// SDRAM -> `bram` block fetch at (or after) `when`.
  void fetch(std::uint32_t step, std::string label, Picoseconds when,
             Bytes bytes, mem::Bram& bram, Pending& op) {
    issue_dma(ctx_->platform(), when, bus::DmaDirection::kMemToLocal, bytes,
              bram, op, std::move(label), trace_, step);
  }
  /// `bram` -> SDRAM write-back at (or after) `when`.
  void writeback(std::uint32_t step, std::string label, Picoseconds when,
                 Bytes bytes, mem::Bram& bram, Pending& op) {
    issue_dma(ctx_->platform(), when, bus::DmaDirection::kLocalToMem, bytes,
              bram, op, std::move(label), trace_, step);
  }

private:
  ExecContext* ctx_;
  ExecTrace* trace_;
};

/// Zero-copy shared local memory: the consumer's input is resident when
/// the producer finishes writing it (or half-way through, streamed).
class SharedMemoryPolicy {
public:
  explicit SharedMemoryPolicy(ExecTrace* trace) : trace_(trace) {}

  /// §IV-A3 case-2 gate: a streamed consumer may start once the first half
  /// of its input exists — half the overlap window before the producer
  /// ends, but no earlier than producer start plus the stream setup
  /// overhead. Shared by the shared-memory and NoC streamed paths.
  [[nodiscard]] static Picoseconds streamed_gate(Picoseconds compute_start,
                                                 Picoseconds compute_end,
                                                 Picoseconds tau_eff,
                                                 Picoseconds consumer_span,
                                                 Picoseconds stream_overhead) {
    const Picoseconds half =
        Picoseconds{std::min(tau_eff.count(), consumer_span.count()) / 2};
    return std::max(compute_start + stream_overhead,
                    compute_end - half + stream_overhead);
  }

  /// Consumer gate time for a handoff from a producer whose compute window
  /// is [compute_start, compute_end] with effective span `tau_eff`. For a
  /// streamed pair the consumer may start once the first half of the data
  /// exists (§IV-A3 case 2). Records an instantaneous shared-handoff event.
  Picoseconds handoff(std::uint32_t step, const std::string& label,
                      Picoseconds compute_start, Picoseconds compute_end,
                      Picoseconds tau_eff, Picoseconds consumer_span,
                      bool is_streamed, Picoseconds stream_overhead,
                      Bytes bytes) {
    Picoseconds dep = compute_end;
    if (is_streamed) {
      dep = streamed_gate(compute_start, compute_end, tau_eff, consumer_span,
                          stream_overhead);
    }
    if (trace_ != nullptr) {
      trace_->record({EventKind::kSharedHandoff, Fabric::kSharedMemory,
                      step, bytes.count(), dep.seconds(), dep.seconds(),
                      label});
    }
    return dep;
  }

private:
  ExecTrace* trace_;
};

/// One in-flight NoC message: the pending marker plus the context its
/// completion callback needs. Kept in one externally-owned struct so the
/// scheduled action only captures a reference (the simulation engine's
/// inline action storage is small by design).
struct NocSendOp {
  Pending op;
  std::uint32_t step = 0;
  ExecTrace* trace = nullptr;
  Picoseconds when{0};
  std::function<void(Picoseconds)> on_delivered;
};

/// The wormhole mesh NoC.
class NocPolicy {
public:
  NocPolicy(ExecContext& ctx, ExecTrace* trace)
      : ctx_(&ctx), trace_(trace) {}

  /// Schedule a flit-level message send at (or after) `when`; `send.op`
  /// completes when the last flit lands, then `send.on_delivered` runs
  /// with the arrival time (delivery bookkeeping for consumer gating).
  void send(std::uint32_t step, std::string label, std::uint32_t source,
            std::uint32_t destination, Bytes bytes, Picoseconds when,
            NocSendOp& send, std::function<void(Picoseconds)> on_delivered);

  /// The analytic oracle: idle-network latency in seconds for a `bytes`
  /// message over `hops` hops (noc::idle_latency_cycles at the NoC clock).
  [[nodiscard]] static double idle_latency_seconds(
      const PlatformConfig& config, Bytes bytes, std::uint32_t hops);

private:
  ExecContext* ctx_;
  ExecTrace* trace_;
  /// (src, dst) pairs whose fault-aware detour was already annotated.
  std::set<std::pair<std::uint32_t, std::uint32_t>> rerouted_logged_;
};

/// The full-crossbar comparison fabric: every kernel's port A reaches
/// every other kernel's local memory; same-target writes serialize.
class CrossbarPolicy {
public:
  CrossbarPolicy(ExecContext& ctx, ExecTrace* trace);

  /// Stream `bytes` from kernel `source` into kernel `target`'s local
  /// memory starting at `start`; returns the port-level completion time.
  Picoseconds stream(std::uint32_t step, const std::string& label,
                     std::uint32_t source, std::uint32_t target,
                     Picoseconds start, Bytes bytes);

private:
  ExecTrace* trace_;
  std::unique_ptr<mem::FullCrossbar> crossbar_;
};

/// DMA over the inter-board serial links: a cut edge's bytes leave the
/// producer board's SDRAM through the link controller (a bus master, like
/// the DMA engine) and land in the consumer board's SDRAM. Timing is
/// store-and-forward per hop (b_eff: latency + bytes/bandwidth each), with
/// each directed link a BusyUntil resource so concurrent transfers over a
/// shared link serialize deterministically. Dead links reroute per the
/// BoardNetwork (ring/mesh); each rerouted (src, dst) board pair is
/// annotated once and counted.
class InterBoardLinkPolicy {
public:
  InterBoardLinkPolicy(const BoardNetwork& net, ExecTrace* trace)
      : net_(&net), trace_(trace) {}

  /// Move `bytes` from board `src` to board `dst`, ready to leave at
  /// `ready`; returns the arrival time at the destination board. Records
  /// one kNocTransfer-kind event spanning the transfer on the
  /// inter-board fabric (plus a one-time kReroute annotation when dead
  /// links forced a detour).
  Picoseconds transfer(std::uint32_t step, const std::string& label,
                       std::uint32_t src, std::uint32_t dst, Bytes bytes,
                       Picoseconds ready);

  [[nodiscard]] std::uint64_t reroutes() const { return reroutes_; }
  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
  [[nodiscard]] std::uint64_t bytes_moved() const { return bytes_moved_; }

private:
  const BoardNetwork* net_;
  ExecTrace* trace_;
  /// One serial resource per directed link (src board, dst board).
  std::map<std::pair<std::uint32_t, std::uint32_t>, BusyUntil<Picoseconds>>
      links_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> rerouted_logged_;
  std::uint64_t reroutes_ = 0;
  std::uint64_t transfers_ = 0;
  std::uint64_t bytes_moved_ = 0;
};

}  // namespace hybridic::sys::engine
