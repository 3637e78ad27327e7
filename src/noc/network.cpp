#include "noc/network.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "faults/injector.hpp"
#include "util/error.hpp"

namespace hybridic::noc {

namespace {

/// Retransmission backoff: attempt k waits kBackoffBaseCycles << (k-1) NoC
/// cycles before the corrupted packet is re-injected.
constexpr std::uint64_t kBackoffBaseCycles = 4;

}  // namespace

Network::Network(std::string name, sim::Engine& engine,
                 const sim::ClockDomain& clock, Mesh2D mesh,
                 NetworkConfig config)
    : name_(std::move(name)),
      engine_(&engine),
      clock_(&clock),
      mesh_(mesh),
      config_(config),
      coords_(mesh.node_count()),
      neighbors_(mesh.node_count()),
      hop_span_(clock.span(Cycles{config.router.pipeline_cycles})),
      adapters_(mesh.node_count()),
      in_route_(mesh.node_count()) {
  routers_.reserve(mesh_.node_count());
  for (std::uint32_t id = 0; id < mesh_.node_count(); ++id) {
    routers_.emplace_back(id, config_.router);
    coords_[id] = mesh_.coord_of(id);
    for (std::uint32_t port = 0; port < neighbors_[id].size(); ++port) {
      neighbors_[id][port] =
          mesh_.neighbor(id, static_cast<PortDir>(port)).value_or(kNoNeighbor);
    }
  }
  engine_->attach_ticking(*this, clock);
}

Adapter& Network::attach_adapter(std::uint32_t node, std::string name,
                                 AdapterKind kind) {
  require(node < mesh_.node_count(), "adapter node outside mesh");
  require(adapters_[node] == nullptr, "node already has an adapter");
  adapters_[node] = std::make_unique<Adapter>(
      std::move(name), node, kind, config_.max_packet_payload_bytes);
  adapter_nodes_.insert(
      std::lower_bound(adapter_nodes_.begin(), adapter_nodes_.end(), node),
      node);
  if (faults_ != nullptr) {
    wire_adapter_faults(*adapters_[node]);
  }
  return *adapters_[node];
}

void Network::set_faults(faults::FaultInjector* injector) {
  faults_ = injector;
  link_state_.reset();
  if (faults_ == nullptr) {
    for (const std::uint32_t node : adapter_nodes_) {
      adapters_[node]->set_fault_hooks(nullptr, nullptr, nullptr);
    }
    return;
  }
  const auto& dead = faults_->spec().dead_links;
  if (!dead.empty()) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    pairs.reserve(dead.size());
    for (const faults::LinkDown& link : dead) {
      pairs.emplace_back(link.a, link.b);
    }
    link_state_ = std::make_unique<LinkState>(mesh_, pairs);
  }
  for (const std::uint32_t node : adapter_nodes_) {
    wire_adapter_faults(*adapters_[node]);
  }
}

void Network::wire_adapter_faults(Adapter& adapter_ref) {
  if (!faults_->resilience().noc_crc) {
    adapter_ref.set_fault_hooks(faults_, nullptr, nullptr);
    return;
  }
  const std::uint32_t dest_node = adapter_ref.node();
  adapter_ref.set_fault_hooks(
      faults_,
      [this, dest_node](const Flit& tail, std::uint64_t payload) {
        return handle_corrupt_packet(dest_node, tail, payload);
      },
      [this](const Flit& tail) {
        retransmit_attempts_.erase({tail.source, tail.packet_id});
      });
}

bool Network::route_exists(std::uint32_t src, std::uint32_t dst) const {
  return link_state_ == nullptr || link_state_->reachable(src, dst);
}

bool Network::route_detoured(std::uint32_t src, std::uint32_t dst) const {
  if (link_state_ == nullptr || src == dst) {
    return false;
  }
  return link_state_->reachable(src, dst) &&
         link_state_->detours(src, dst);
}

PortDir Network::route_from(std::uint32_t node, const Flit& flit) const {
  if (link_state_ != nullptr) {
    const std::optional<PortDir> hop =
        link_state_->next_hop(node, flit.destination);
    sim_assert(hop.has_value(),
               "flit in flight towards a node unreachable over surviving "
               "links (send-side reachability check missed it)");
    return *hop;
  }
  return xy_route(coords_[node], coords_[flit.destination]);
}

void Network::maybe_corrupt(Flit& flit, std::uint32_t node,
                            Picoseconds now) {
  const double rate = faults_->spec().flit_corruption_rate;
  if (!faults_->draw(faults::SiteKind::kNocFlit, node, rate)) {
    return;
  }
  flit.corrupted = true;
  ++faults_->stats().flits_corrupted;
  faults_->record(faults::FaultKind::kFlitCorruption, now.seconds(),
                  kFlitPayloadBytes,
                  name_ + ": flit corrupted at node " + std::to_string(node) +
                      " (msg " + std::to_string(flit.message_id) + " pkt " +
                      std::to_string(flit.packet_id) + ")");
}

bool Network::handle_corrupt_packet(std::uint32_t dest_node,
                                    const Flit& tail,
                                    std::uint64_t payload_flits) {
  const auto key = std::make_pair(tail.source, tail.packet_id);
  std::uint32_t& attempts = retransmit_attempts_[key];
  const faults::ResilienceSpec& res = faults_->resilience();
  if (attempts >= res.noc_max_retransmits) {
    retransmit_attempts_.erase(key);
    ++faults_->stats().retransmit_give_ups;
    return false;  // budget exhausted: accept the packet as-corrupted
  }
  ++attempts;
  ++faults_->stats().packets_retransmitted;
  const std::uint32_t shift = std::min(attempts - 1, 10u);
  const Cycles backoff{kBackoffBaseCycles << shift};
  faults_->record(
      faults::FaultKind::kRetransmit, engine_->now().seconds(),
      payload_flits * kFlitPayloadBytes,
      name_ + ": retransmit pkt " + std::to_string(tail.packet_id) +
          " (node " + std::to_string(tail.source) + " -> " +
          std::to_string(dest_node) + ", attempt " +
          std::to_string(attempts) + ")");
  Adapter* source = adapters_[tail.source].get();
  const std::uint64_t message_id = tail.message_id;
  const std::uint64_t packet_id = tail.packet_id;
  engine_->schedule_after(
      clock_->span(backoff),
      [this, source, dest_node, message_id, packet_id, payload_flits] {
        source->resend_packet(dest_node, message_id, packet_id,
                              payload_flits);
        engine_->activate();
      });
  return true;
}

Router& Network::router(std::uint32_t node) {
  require(node < routers_.size(), "router node outside mesh");
  return routers_[node];
}

Adapter* Network::adapter(std::uint32_t node) {
  require(node < adapters_.size(), "adapter node outside mesh");
  return adapters_[node].get();
}

std::uint64_t Network::send(std::uint32_t source, std::uint32_t destination,
                            Bytes bytes, DeliveryCallback on_delivered) {
  require(source < mesh_.node_count() && destination < mesh_.node_count(),
          "NoC send outside mesh");
  require(adapters_[source] != nullptr, "NoC send from node with no adapter");
  require(adapters_[destination] != nullptr,
          "NoC send to node with no adapter");
  const std::uint64_t id = next_message_id_++;

  if (link_state_ != nullptr && source != destination &&
      !link_state_->reachable(source, destination)) {
    // Dead links disconnect this pair: the message is black-holed. Nothing
    // is enqueued, so the delivery callback never fires and the wait_all
    // watchdog reports the stuck op (unless the edge router degraded the
    // edge to the bus before reaching this point).
    ++faults_->stats().messages_lost;
    faults_->record(faults::FaultKind::kMessageLost,
                    engine_->now().seconds(), bytes.count(),
                    name_ + ": message lost, node " +
                        std::to_string(source) + " cannot reach node " +
                        std::to_string(destination) +
                        " over surviving links");
    return id;
  }

  if (source == destination) {
    // Degenerate loopback: delivered on the next NoC edge without touching
    // the fabric.
    const Picoseconds when = clock_->align_up(engine_->now());
    engine_->schedule_at(
        when, [cb = std::move(on_delivered), id, bytes, when] {
          if (cb) {
            cb(id, bytes, when);
          }
        });
    return id;
  }

  ++inflight_;
  adapters_[destination]->expect_message(
      id, bytes,
      [this, cb = std::move(on_delivered)](
          std::uint64_t message_id, Bytes message_bytes, Picoseconds now) {
        --inflight_;
        ++stats_.messages_delivered;
        if (cb) {
          cb(message_id, message_bytes, now);
        }
      });
  adapters_[source]->enqueue_message(destination, id, bytes);
  engine_->activate();
  return id;
}

bool Network::tick(Picoseconds now) {
  // Batched advancement: only routers holding flits do any per-tick work;
  // idle routers cost one counter load. Iteration stays in node-id order so
  // arbitration outcomes are identical to the full sweep.
  for (Router& router_ref : routers_) {
    if (router_ref.busy()) {
      move_router_flits(router_ref, now);
    }
  }
  for (const std::uint32_t node : adapter_nodes_) {
    Adapter& adapter_ref = *adapters_[node];
    if (!adapter_ref.has_pending()) {
      continue;
    }
    Router& local_router = routers_[node];
    if (local_router.can_accept(PortDir::kLocal)) {
      Flit flit = adapter_ref.consume_pending();
      if (faults_ != nullptr) {
        maybe_corrupt(flit, node, now);
      }
      local_router.accept(
          PortDir::kLocal, flit, now + hop_span_,
          flit.is_head() ? route_from(node, flit) : PortDir::kLocal);
    }
  }
  return inflight_ > 0;
}

void Network::move_router_flits(Router& router_ref, Picoseconds now) {
  const std::uint32_t node = router_ref.id();
  auto& routes = in_route_[node];

  // One readiness snapshot per tick: the inputs holding a ready flit, and
  // per output the inputs whose ready HEAD flit routes there (and which of
  // those heads are single-flit packets).
  std::uint32_t ready = 0;
  std::uint32_t head_tails = 0;
  std::array<std::uint32_t, kPortCount> heads_to{};
  for (std::uint32_t in_idx = 0; in_idx < kPortCount; ++in_idx) {
    const auto in = static_cast<PortDir>(in_idx);
    const Flit* front = router_ref.ready_front(in, now);
    if (front == nullptr) {
      continue;
    }
    ready |= 1U << in_idx;
    if (front->is_head()) {
      heads_to[static_cast<std::size_t>(router_ref.front_route(in))] |=
          1U << in_idx;
      if (front->is_tail()) {
        head_tails |= 1U << in_idx;
      }
    }
  }

  std::uint32_t moved = 0;
  for (std::uint32_t out_idx = 0; out_idx < kPortCount; ++out_idx) {
    const auto out = static_cast<PortDir>(out_idx);

    if (router_ref.output_locked(out)) {
      // Wormhole continuation: only the owning input may use this output.
      const PortDir in = router_ref.lock_owner(out);
      const auto in_idx = static_cast<std::size_t>(in);
      const std::uint32_t bit = 1U << in_idx;
      if ((ready & ~moved & bit) == 0) {
        continue;
      }
      sim_assert(routes[in_idx] == out,
                 "locked output does not match input route state");
      if (forward(node, out, in, now)) {
        moved |= bit;
      }
      continue;
    }

    // Free output: arbitrate among input ports whose ready HEAD flit routes
    // here, and only when the downstream can take a flit right now, so a
    // blocked winner does not burn the grant.
    const std::uint32_t waiting = heads_to[out_idx] & ~moved;
    if (waiting == 0) {
      continue;
    }
    if (out != PortDir::kLocal) {
      const std::uint32_t next = neighbors_[node][out_idx];
      if (next == kNoNeighbor || !routers_[next].can_accept(opposite(out))) {
        continue;
      }
    }
    std::array<bool, kPortCount> candidates{};
    for (std::uint32_t in_idx = 0; in_idx < kPortCount; ++in_idx) {
      candidates[in_idx] = (waiting >> in_idx & 1U) != 0;
    }
    const std::optional<PortDir> winner =
        router_ref.arbitrate(out, candidates);
    if (!winner.has_value()) {
      continue;
    }
    const auto win_idx = static_cast<std::size_t>(*winner);
    sim_assert((waiting >> win_idx & 1U) != 0, "arbitration state skew");
    routes[win_idx] = out;
    if ((head_tails >> win_idx & 1U) == 0) {
      router_ref.lock_output(out, *winner);
    }
    if (forward(node, out, *winner, now)) {
      moved |= 1U << win_idx;
    }
  }
}

bool Network::forward(std::uint32_t node, PortDir out, PortDir in,
                      Picoseconds now) {
  Router& router_ref = routers_[node];
  std::uint32_t next_id = kNoNeighbor;
  if (out != PortDir::kLocal) {
    next_id = neighbors_[node][static_cast<std::size_t>(out)];
    sim_assert(next_id != kNoNeighbor, "route points off the mesh edge");
    if (!routers_[next_id].can_accept(opposite(out))) {
      return false;
    }
  }
  const Flit flit = router_ref.pop(in);
  if (flit.is_tail()) {
    if (router_ref.output_locked(out) && router_ref.lock_owner(out) == in) {
      router_ref.unlock_output(out);
    }
    in_route_[node][static_cast<std::size_t>(in)].reset();
  }
  if (out == PortDir::kLocal) {
    ++stats_.flits_ejected;
    Adapter* sink = adapters_[node].get();
    sim_assert(sink != nullptr, "flit ejected at node without adapter");
    sink->deliver(flit, now);
    return true;
  }
  routers_[next_id].accept(
      opposite(out), flit, now + hop_span_,
      flit.is_head() ? route_from(next_id, flit) : PortDir::kLocal);
  return true;
}

Picoseconds Network::ideal_latency(Bytes bytes, std::uint32_t hops) const {
  return clock_->span(Cycles{
      idle_latency_cycles(bytes.count(), hops,
                          config_.max_packet_payload_bytes,
                          config_.router.pipeline_cycles)});
}

}  // namespace hybridic::noc
