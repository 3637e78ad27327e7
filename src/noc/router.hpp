// Input-buffered wormhole router with round-robin output arbitration,
// modelled after the scalable QoS router of Heisswolf et al. that the paper
// adapts (Table II: 309 LUTs / 353 registers, 150 MHz).
//
// Switching discipline:
//  - 5 ports (N/E/S/W/Local), one flit per port per cycle in each direction;
//  - wormhole: a HEAD flit that wins an output locks that output for its
//    packet until the TAIL passes, so packets never interleave on a link;
//  - arbitration: round-robin over the input ports competing for a free
//    output, which is the reference router's weighted round-robin at the
//    unit weights every workload runs;
//  - credit-style backpressure: a flit only advances when the downstream
//    input buffer has a free slot;
//  - per-hop pipeline latency of `pipeline_cycles` before a buffered flit
//    becomes eligible to advance.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "noc/flit.hpp"
#include "noc/topology.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace hybridic::noc {

/// Router micro-architecture parameters.
struct RouterConfig {
  std::uint32_t buffer_flits = 8;     ///< Input FIFO depth per port.
  std::uint32_t pipeline_cycles = 2;  ///< Per-hop latency (route + traverse).
};

/// A flit with its in-buffer readiness timestamp and its routing decision,
/// computed once on acceptance instead of once per tick while the flit
/// waits at the head of its buffer. Only head flits carry a meaningful
/// route; body/tail flits follow their packet's wormhole lock.
struct BufferedFlit {
  Flit flit;
  Picoseconds ready_at{0};
  PortDir route = PortDir::kLocal;
};

/// One mesh router. The Network drives `tick` and performs inter-router
/// flit movement through `accept`/`pop`. The per-flit probes and mutators
/// are defined here so the Network's per-tick loops inline them.
class Router {
public:
  Router(std::uint32_t id, RouterConfig config);

  /// True when input `port` has a free buffer slot.
  [[nodiscard]] bool can_accept(PortDir port) const {
    return input(port).count < config_.buffer_flits;
  }

  /// Push a flit into input `port`; it becomes eligible to advance at
  /// `ready_at` (arrival time + pipeline latency, set by the Network).
  /// `route` is the Network's precomputed output port for the flit.
  void accept(PortDir port, const Flit& flit, Picoseconds ready_at,
              PortDir route = PortDir::kLocal) {
    InputBuffer& buffer = input(port);
    sim_assert(buffer.count < config_.buffer_flits,
               "router input buffer overflow (backpressure violated)");
    buffer.push(BufferedFlit{flit, ready_at, route});
    ++buffered_;
  }

  /// Front flit of input `port` if present and ready at `now`.
  [[nodiscard]] const Flit* ready_front(PortDir port, Picoseconds now) const {
    const InputBuffer& buffer = input(port);
    if (buffer.count == 0 || buffer.front().ready_at > now) {
      return nullptr;
    }
    return &buffer.front().flit;
  }

  /// Cached routing decision of the front flit of input `port`; the buffer
  /// must not be empty.
  [[nodiscard]] PortDir front_route(PortDir port) const {
    const InputBuffer& buffer = input(port);
    sim_assert(buffer.count != 0, "front_route on empty router input buffer");
    return buffer.front().route;
  }

  /// Pop the front flit of input `port`.
  Flit pop(PortDir port) {
    InputBuffer& buffer = input(port);
    sim_assert(buffer.count != 0, "pop from empty router input buffer");
    const Flit flit = buffer.front().flit;
    buffer.pop();
    --buffered_;
    return flit;
  }

  /// Output-lock bookkeeping for wormhole switching.
  [[nodiscard]] bool output_locked(PortDir out) const {
    return outputs_[static_cast<std::size_t>(out)].locked;
  }
  [[nodiscard]] PortDir lock_owner(PortDir out) const {
    return outputs_[static_cast<std::size_t>(out)].owner;
  }
  void lock_output(PortDir out, PortDir owner_input);
  void unlock_output(PortDir out) {
    outputs_[static_cast<std::size_t>(out)].locked = false;
  }

  /// Round-robin winner among `candidates` (input ports bitmask encoded as
  /// bool array) for output `out`: the first candidate after the output's
  /// previous winner. Updates that pointer.
  [[nodiscard]] std::optional<PortDir> arbitrate(
      PortDir out, const std::array<bool, kPortCount>& candidates);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] const RouterConfig& config() const { return config_; }

  /// Total flits currently buffered across all inputs (O(1)).
  [[nodiscard]] std::uint32_t occupancy() const { return buffered_; }

  /// True when any input holds a flit — the Network's cheap skip test for
  /// idle routers on the per-tick sweep.
  [[nodiscard]] bool busy() const { return buffered_ != 0; }

private:
  struct OutputState {
    bool locked = false;
    PortDir owner = PortDir::kLocal;
    std::uint32_t last_winner = kPortCount - 1;  ///< Round-robin pointer.
  };

  /// Fixed-capacity ring FIFO sized to the configured buffer depth — the
  /// input buffers never reallocate or chase deque block pointers on the
  /// per-tick hot path, and wrap with a compare instead of a division.
  struct InputBuffer {
    std::vector<BufferedFlit> slots;
    std::uint32_t head = 0;
    std::uint32_t count = 0;

    [[nodiscard]] const BufferedFlit& front() const { return slots[head]; }
    void push(const BufferedFlit& flit) {
      std::size_t tail = head + count;
      if (tail >= slots.size()) {
        tail -= slots.size();
      }
      slots[tail] = flit;
      ++count;
    }
    void pop() {
      if (++head == slots.size()) {
        head = 0;
      }
      --count;
    }
  };

  [[nodiscard]] InputBuffer& input(PortDir port) {
    return inputs_[static_cast<std::size_t>(port)];
  }
  [[nodiscard]] const InputBuffer& input(PortDir port) const {
    return inputs_[static_cast<std::size_t>(port)];
  }

  std::uint32_t id_;
  RouterConfig config_;
  std::array<InputBuffer, kPortCount> inputs_;
  std::array<OutputState, kPortCount> outputs_;
  std::uint32_t buffered_ = 0;
};

}  // namespace hybridic::noc
