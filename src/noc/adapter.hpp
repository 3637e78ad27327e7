// Network adapters (NAs).
//
// Paper Table II distinguishes the "NA HW Accelerator" (396/426 LUT/reg),
// which packetizes a kernel's output stream, from the lighter "NA local
// memory" (60/114), which only sinks packets into a BRAM port. Functionally
// an adapter:
//  - splits an outgoing message into packets of bounded payload,
//  - injects one flit per NoC cycle into the local router port, built at
//    injection from one queued descriptor per message,
//  - reassembles incoming packets and fires a delivery callback when the
//    whole message has arrived.
//
// Message ids are allocated by the Network, which pairs the sender's
// enqueue_message() with expect_message() on the destination adapter.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "noc/flit.hpp"
#include "noc/topology.hpp"
#include "util/units.hpp"

namespace hybridic::faults {
class FaultInjector;
}  // namespace hybridic::faults

namespace hybridic::noc {

/// Adapter flavor — affects the resource model, not the protocol.
enum class AdapterKind : std::uint8_t { kAccelerator, kLocalMemory };

/// Completed message notification: (message_id, bytes, delivery_time).
using DeliveryCallback =
    std::function<void(std::uint64_t, Bytes, Picoseconds)>;

/// CRC-failure decision hook: given the tail flit of a corrupted packet and
/// its payload flit count, return true to discard the packet (a clean copy
/// will be retransmitted) or false to accept it as-corrupted.
using CorruptPacketHandler =
    std::function<bool(const Flit&, std::uint64_t)>;

/// Notification that a packet completed uncorrupted (used by the Network to
/// retire retransmission bookkeeping).
using CleanPacketHandler = std::function<void(const Flit&)>;

/// Per-node network adapter.
class Adapter {
public:
  Adapter(std::string name, std::uint32_t node, AdapterKind kind,
          std::uint32_t max_packet_payload_bytes);

  /// Queue `bytes` for `message_id` towards `destination`, reserving the
  /// ids of all its packets. Called by the Network.
  void enqueue_message(std::uint32_t destination, std::uint64_t message_id,
                       Bytes bytes);

  /// Register reassembly state for an incoming message. Called by the
  /// Network on the destination adapter when the sender enqueues.
  void expect_message(std::uint64_t message_id, Bytes bytes,
                      DeliveryCallback on_delivered);

  /// True while a flit waits to be injected.
  [[nodiscard]] bool has_pending() const { return !tx_queue_.empty(); }

  /// Build and consume the next flit to inject; one must be pending.
  Flit consume_pending();

  /// Sink a flit ejected at this node. Fires the registered delivery
  /// callback when the final payload flit of a message lands.
  void deliver(const Flit& flit, Picoseconds now);

  /// True while the adapter still has flits to inject or partial messages
  /// in reassembly.
  [[nodiscard]] bool busy() const;

  /// Wire the fault-injection hooks (Network-owned). `on_corrupt` is only
  /// set when CRC/retransmission is enabled; null hooks keep the fault-free
  /// delivery path unchanged.
  void set_fault_hooks(faults::FaultInjector* injector,
                       CorruptPacketHandler on_corrupt,
                       CleanPacketHandler on_clean);

  /// Re-inject one packet of `payload_flit_count` flits with its original
  /// packet id (retransmission of a corrupted packet).
  void resend_packet(std::uint32_t destination, std::uint64_t message_id,
                     std::uint64_t packet_id,
                     std::uint64_t payload_flit_count);

  [[nodiscard]] std::uint32_t node() const { return node_; }
  [[nodiscard]] AdapterKind kind() const { return kind_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t messages_received() const {
    return messages_received_;
  }
  [[nodiscard]] std::uint64_t flits_injected() const {
    return flits_injected_;
  }

private:
  struct Reassembly {
    std::uint64_t message_id = 0;
    std::uint64_t expected_payload_flits = 0;
    std::uint64_t received_payload_flits = 0;
    bool head_tail_seen = false;
    DeliveryCallback on_delivered;
    Bytes bytes{0};
    // Packets of one message arrive flit-contiguous (serial injection, one
    // deterministic path), so per-packet CRC state is two scalars reset at
    // each head flit.
    std::uint64_t packet_payload_flits = 0;
    bool packet_corrupted = false;
  };

  /// One queued transmission — a whole message, or one retransmitted
  /// packet — from which flits are built one at a time at injection.
  struct TxDescriptor {
    std::uint64_t message_id = 0;
    std::uint64_t packet_id = 0;     ///< Packet now being injected.
    std::uint64_t bytes_left = 0;    ///< Payload bytes of later packets.
    std::uint32_t destination = 0;
    std::uint32_t packet_flits = 0;  ///< Payload flits of this packet.
    std::uint32_t sequence = 0;      ///< Index of the next flit in it.

    /// Load the next packet, carrying at most `max_payload` bytes.
    void next_packet(std::uint32_t max_payload);
  };

  std::string name_;
  std::uint32_t node_;
  AdapterKind kind_;
  std::uint32_t max_packet_payload_bytes_;

  std::deque<TxDescriptor> tx_queue_;
  std::unordered_map<std::uint64_t, Reassembly> rx_;
  /// Reassembly of the packet now arriving. The local output of this
  /// node's router stays locked from a packet's head to its tail, so its
  /// flits eject back to back and only head flits look the message up.
  Reassembly* rx_current_ = nullptr;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_received_ = 0;
  std::uint64_t flits_injected_ = 0;
  std::uint64_t next_packet_id_ = 1;

  faults::FaultInjector* faults_ = nullptr;
  CorruptPacketHandler on_corrupt_packet_;
  CleanPacketHandler on_clean_packet_;
};

}  // namespace hybridic::noc
