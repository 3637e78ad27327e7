#include "noc/adapter.hpp"

#include <algorithm>

#include "faults/injector.hpp"
#include "util/error.hpp"

namespace hybridic::noc {

Adapter::Adapter(std::string name, std::uint32_t node, AdapterKind kind,
                 std::uint32_t max_packet_payload_bytes)
    : name_(std::move(name)),
      node_(node),
      kind_(kind),
      max_packet_payload_bytes_(max_packet_payload_bytes) {
  require(max_packet_payload_bytes >= kFlitPayloadBytes,
          "packet payload must hold at least one flit");
}

void Adapter::TxDescriptor::next_packet(std::uint32_t max_payload) {
  const std::uint64_t chunk = std::min<std::uint64_t>(bytes_left, max_payload);
  packet_flits = static_cast<std::uint32_t>(payload_flits(chunk));
  bytes_left -= chunk;
  sequence = 0;
}

void Adapter::enqueue_message(std::uint32_t destination,
                              std::uint64_t message_id, Bytes bytes) {
  TxDescriptor tx;
  tx.message_id = message_id;
  tx.packet_id = next_packet_id_;
  tx.bytes_left = bytes.count();
  tx.destination = destination;
  tx.next_packet(max_packet_payload_bytes_);
  // Every packet's id is reserved now, in order, as if each were queued.
  next_packet_id_ += packet_count(bytes.count(), max_packet_payload_bytes_);
  tx_queue_.push_back(tx);
  ++messages_sent_;
}

void Adapter::expect_message(std::uint64_t message_id, Bytes bytes,
                             DeliveryCallback on_delivered) {
  Reassembly reassembly;
  reassembly.message_id = message_id;
  reassembly.expected_payload_flits = payload_flits(bytes.count());
  reassembly.on_delivered = std::move(on_delivered);
  reassembly.bytes = bytes;
  const bool inserted =
      rx_.emplace(message_id, std::move(reassembly)).second;
  sim_assert(inserted, "duplicate message id in adapter reassembly");
}

Flit Adapter::consume_pending() {
  sim_assert(!tx_queue_.empty(), "consume_pending with empty tx queue");
  TxDescriptor& tx = tx_queue_.front();
  Flit flit;
  flit.packet_id = tx.packet_id;
  flit.message_id = tx.message_id;
  flit.source = node_;
  flit.destination = tx.destination;
  flit.sequence = tx.sequence;
  if (tx.sequence == 0) {
    flit.kind = tx.packet_flits == 0 ? FlitKind::kHeadTail : FlitKind::kHead;
  } else {
    flit.kind =
        tx.sequence == tx.packet_flits ? FlitKind::kTail : FlitKind::kBody;
  }
  ++flits_injected_;
  if (tx.sequence < tx.packet_flits) {
    ++tx.sequence;
  } else if (tx.bytes_left > 0) {
    ++tx.packet_id;
    tx.next_packet(max_packet_payload_bytes_);
  } else {
    tx_queue_.pop_front();
  }
  return flit;
}

void Adapter::deliver(const Flit& flit, Picoseconds now) {
  if (flit.is_head()) {
    auto it = rx_.find(flit.message_id);
    sim_assert(it != rx_.end(),
               "flit delivered for unknown message (network wiring bug)");
    rx_current_ = &it->second;
    rx_current_->packet_payload_flits = 0;
    rx_current_->packet_corrupted = false;
  }
  sim_assert(rx_current_ != nullptr &&
                 rx_current_->message_id == flit.message_id,
             "flit delivered outside its packet (network wiring bug)");
  Reassembly& reassembly = *rx_current_;
  reassembly.packet_corrupted =
      reassembly.packet_corrupted || flit.corrupted;
  if (flit.kind == FlitKind::kBody || flit.kind == FlitKind::kTail) {
    ++reassembly.packet_payload_flits;
  }
  if (!flit.is_tail()) {
    return;  // payload commits at packet boundaries (CRC granularity)
  }
  rx_current_ = nullptr;
  if (reassembly.packet_corrupted) {
    if (on_corrupt_packet_ &&
        on_corrupt_packet_(flit, reassembly.packet_payload_flits)) {
      return;  // discarded; a clean copy is being retransmitted
    }
    if (faults_ != nullptr) {
      faults_->stats().corrupted_bytes +=
          reassembly.packet_payload_flits * kFlitPayloadBytes;
    }
  } else if (on_clean_packet_) {
    on_clean_packet_(flit);
  }
  if (flit.kind == FlitKind::kHeadTail) {
    reassembly.head_tail_seen = true;
  } else {
    reassembly.received_payload_flits += reassembly.packet_payload_flits;
  }
  const bool complete =
      reassembly.received_payload_flits >= reassembly.expected_payload_flits &&
      (reassembly.expected_payload_flits > 0 || reassembly.head_tail_seen);
  if (complete) {
    ++messages_received_;
    Reassembly done = std::move(reassembly);
    rx_.erase(flit.message_id);
    if (done.on_delivered) {
      done.on_delivered(flit.message_id, done.bytes, now);
    }
  }
}

void Adapter::set_fault_hooks(faults::FaultInjector* injector,
                              CorruptPacketHandler on_corrupt,
                              CleanPacketHandler on_clean) {
  faults_ = injector;
  on_corrupt_packet_ = std::move(on_corrupt);
  on_clean_packet_ = std::move(on_clean);
}

void Adapter::resend_packet(std::uint32_t destination,
                            std::uint64_t message_id,
                            std::uint64_t packet_id,
                            std::uint64_t payload_flit_count) {
  TxDescriptor tx;
  tx.message_id = message_id;
  tx.packet_id = packet_id;
  tx.destination = destination;
  tx.packet_flits = static_cast<std::uint32_t>(payload_flit_count);
  tx_queue_.push_back(tx);
}

bool Adapter::busy() const { return !tx_queue_.empty() || !rx_.empty(); }

}  // namespace hybridic::noc
