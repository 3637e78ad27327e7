// Shared system bus (Xilinx-PLB-like) at transaction granularity.
//
// One transaction owns the bus at a time: arbitration cycles, an address
// phase, then data beats at the bus width, split into maximum-length bursts.
// Masters are granted by fixed priority, PLB-style: the lowest-numbered
// master with a pending request wins, so a busy master 0 starves the rest
// by design.
// Masters submit requests with completion callbacks; the engine drives
// grant/completion events so bus traffic overlaps correctly with kernel
// computation and NoC transfers in the proposed system.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace hybridic::faults {
class FaultInjector;
}  // namespace hybridic::faults

namespace hybridic::bus {

/// Timing parameters of the shared bus.
struct BusConfig {
  std::uint32_t width_bytes = 8;        ///< 64-bit PLB data width.
  std::uint32_t max_burst_beats = 16;   ///< PLB max burst length.
  Cycles arbitration_cycles{2};         ///< Request → grant.
  Cycles address_cycles{1};             ///< Address phase per burst.
  std::uint32_t master_count = 2;
};

/// Duration of an uncontended transfer of `bytes` on a bus with `config`
/// and clock `period` (arb + per-burst address phases + data beats),
/// excluding slave latency.
[[nodiscard]] Picoseconds uncontended_time(const BusConfig& config,
                                           Picoseconds period, Bytes bytes);

/// Average seconds/byte on an idle bus for a transfer of `bytes` — the
/// paper's θ for a representative transfer size.
[[nodiscard]] double theta_seconds_per_byte(const BusConfig& config,
                                            Picoseconds period, Bytes bytes);

/// A queued bus transfer request.
struct BusRequest {
  std::uint32_t master = 0;
  Bytes bytes{0};
  Picoseconds extra_latency{0};  ///< Slave-side latency (e.g. SDRAM access).
  std::function<void(Picoseconds)> on_complete;
};

/// The shared bus. All timing is in the bus clock domain.
class Bus {
public:
  Bus(std::string name, sim::Engine& engine, const sim::ClockDomain& clock,
      BusConfig config);

  /// Submit a transfer; `on_complete` fires at the delivery time of the
  /// last beat. Requests from the same master stay FIFO.
  void submit(BusRequest request);

  /// bus::uncontended_time on this bus's config and clock.
  [[nodiscard]] Picoseconds uncontended_time(Bytes bytes) const;

  [[nodiscard]] Bytes bytes_transferred() const { return bytes_transferred_; }
  [[nodiscard]] std::uint64_t transactions() const { return transactions_; }
  [[nodiscard]] Picoseconds busy_time() const { return busy_time_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const BusConfig& config() const { return config_; }

  /// Enable arbiter-stall fault injection (null disables).
  void set_faults(faults::FaultInjector* injector) { faults_ = injector; }

private:
  void try_grant();

  std::string name_;
  sim::Engine* engine_;
  const sim::ClockDomain* clock_;
  BusConfig config_;

  /// Per-master FIFO of pending requests (front = oldest).
  std::vector<std::deque<BusRequest>> queues_;
  bool busy_ = false;

  Bytes bytes_transferred_{0};
  std::uint64_t transactions_ = 0;
  Picoseconds busy_time_{0};
  faults::FaultInjector* faults_ = nullptr;
};

}  // namespace hybridic::bus
