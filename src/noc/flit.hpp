// Flit-level data units for the wormhole NoC.
//
// The NoC follows the architecture of Heisswolf et al. (the router the paper
// adapts, Table II: 309 LUTs / 353 registers @150 MHz): wormhole switching
// with 32-bit flits and round-robin output arbitration (their weighted
// round-robin at unit weights). A message is split into packets; a packet
// is HEAD + payload flits, the last marked TAIL (or a single HEAD_TAIL for
// header-only packets).
#pragma once

#include <cstdint>

namespace hybridic::noc {

/// Position of a flit inside its packet.
enum class FlitKind : std::uint8_t { kHead, kBody, kTail, kHeadTail };

/// One 32-bit flit. The simulator does not carry payload bits — only the
/// bookkeeping needed for routing, reassembly and statistics.
struct Flit {
  std::uint64_t packet_id = 0;   ///< Unique per packet.
  std::uint64_t message_id = 0;  ///< Messages may span several packets.
  std::uint32_t source = 0;      ///< Source node id.
  std::uint32_t destination = 0; ///< Destination node id.
  std::uint32_t sequence = 0;    ///< Flit index within the packet.
  FlitKind kind = FlitKind::kHead;
  bool corrupted = false;        ///< Set by fault injection in transit.

  [[nodiscard]] bool is_head() const {
    return kind == FlitKind::kHead || kind == FlitKind::kHeadTail;
  }
  [[nodiscard]] bool is_tail() const {
    return kind == FlitKind::kTail || kind == FlitKind::kHeadTail;
  }
};

/// Bytes of application payload carried per body flit (32-bit phits).
inline constexpr std::uint32_t kFlitPayloadBytes = 4;

/// Payload flits needed for `bytes` of application data.
[[nodiscard]] constexpr std::uint64_t payload_flits(std::uint64_t bytes) {
  return (bytes + kFlitPayloadBytes - 1) / kFlitPayloadBytes;
}

/// Packets a `bytes` message is split into: a zero-byte message still
/// sends one header-only packet.
[[nodiscard]] constexpr std::uint64_t packet_count(
    std::uint64_t bytes, std::uint32_t max_packet_payload_bytes) {
  return bytes == 0
             ? 1
             : (bytes + max_packet_payload_bytes - 1) / max_packet_payload_bytes;
}

/// Idle-network latency oracle, in NoC cycles: the time for a `bytes`
/// message to fully arrive `hops` hops away on an otherwise idle network.
/// Serialization (payload flits plus one head flit per packet) plus the
/// router pipeline at every hop and the final ejection stage. This is the
/// single source of truth shared by the flit-level simulator
/// (`Network::ideal_latency`) and the analytic executors — keep them in
/// sync by construction, not by copy.
[[nodiscard]] constexpr std::uint64_t idle_latency_cycles(
    std::uint64_t bytes, std::uint32_t hops,
    std::uint32_t max_packet_payload_bytes, std::uint32_t pipeline_cycles) {
  return payload_flits(bytes) +
         packet_count(bytes, max_packet_payload_bytes) +
         static_cast<std::uint64_t>(pipeline_cycles) * (hops + 1);
}

}  // namespace hybridic::noc
