// Platform: an assembled accelerator system instance — host + SDRAM + PLB
// bus + per-kernel BRAM local memories, optionally extended with the custom
// interconnect (NoC + adapters, crossbars) a DesignResult describes.
//
// Clock rates default to the paper's ML510 setup: host 400 MHz, kernels and
// PLB 100 MHz, NoC routers 150 MHz.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/bus.hpp"
#include "bus/dma.hpp"
#include "core/board_partition.hpp"
#include "core/design_result.hpp"
#include "faults/fault_spec.hpp"
#include "faults/injector.hpp"
#include "mem/bram.hpp"
#include "mem/sdram.hpp"
#include "noc/network.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sys/board_net.hpp"

namespace hybridic::sys {

/// Platform-wide configuration.
struct PlatformConfig {
  Frequency host_clock = Frequency::megahertz(400);
  Frequency kernel_clock = Frequency::megahertz(100);
  Frequency bus_clock = Frequency::megahertz(100);
  Frequency noc_clock = Frequency::megahertz(150);

  /// ML510-era PLB behaviour: 32-bit data path, single-beat transfers (the
  /// DWARV-generated CCUs of the paper's platform do not burst), giving an
  /// effective ~10 ns/byte — which is what makes kernel communication the
  /// dominant cost the paper sets out to attack.
  bus::BusConfig bus{4, 1, Cycles{2}, Cycles{1}, 2};
  bus::DmaConfig dma{Cycles{50}, 1024};
  mem::SdramConfig sdram;
  noc::NetworkConfig noc;

  Bytes bram_capacity{64 * 1024};
  std::uint32_t bram_port_width_bytes = 4;

  /// Streaming/duplication overheads (the O terms of §IV-A3); must match
  /// what the design algorithm assumed.
  double stream_overhead_seconds = 15e-6;
  double duplication_overhead_seconds = 30e-6;

  /// Fault-injection campaign for this run; defaults to no faults, in which
  /// case the platform builds no injector and every fault hook stays null.
  faults::FaultSpec faults;

  /// Watchdog for wait_all: a run whose simulated time would exceed this is
  /// aborted with a structured SimTimeoutError naming the stuck ops.
  /// Fault-free runs finish in simulated milliseconds, so the default is
  /// far off the hot path.
  double watchdog_seconds = 10.0;
};

/// A multi-FPGA platform: `board_count` boards, each configured as `board`,
/// joined by an inter-board serial-link network (chain / ring / mesh of
/// point-to-point links, b_eff style). The host CPU lives on board 0.
/// board_count == 1 degenerates to the plain single-board platform: every
/// multi-board entry point then delegates verbatim to the single-board
/// code path.
struct MultiBoardConfig {
  PlatformConfig board;  ///< What every board runs, faults included.
  std::uint32_t board_count = 1;
  core::BoardTopology topology = core::BoardTopology::kChain;
  InterBoardLinkConfig link;
  /// Permanently failed inter-board serial links, named by the two board
  /// ids they connect. On ring/mesh topologies traffic reroutes around a
  /// dead link; a disconnected topology (any dead chain link) is a
  /// ConfigError.
  std::vector<faults::LinkDown> dead_board_links;
};

/// θ of the idle bus: the average seconds/byte of a 4096-byte transfer
/// (arbitration, address phases and data beats at the bus clock) — the θ
/// the design algorithm and the pipelined executor consume.
[[nodiscard]] double bus_theta(const PlatformConfig& config);

/// A runnable platform for one application design. Owns the engine.
class Platform {
public:
  /// Build a platform hosting `instance_count` kernels. If `design` is
  /// non-null and has a NoC plan, the mesh network and adapters are
  /// instantiated per the plan.
  Platform(PlatformConfig config, std::size_t instance_count,
           const core::DesignResult* design);

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const sim::ClockDomain& host_clock() const { return host_; }
  [[nodiscard]] const sim::ClockDomain& kernel_clock() const {
    return kernel_;
  }
  [[nodiscard]] bus::Bus& bus() { return *bus_; }
  [[nodiscard]] bus::Dma& dma() { return *dma_; }
  [[nodiscard]] mem::Sdram& sdram() { return *sdram_; }
  [[nodiscard]] mem::Bram& bram(std::size_t instance);
  [[nodiscard]] noc::Network* network() { return network_.get(); }

  /// Mesh node of an instance's kernel / memory attachment, if on the NoC.
  [[nodiscard]] std::optional<std::uint32_t> noc_node(
      std::size_t instance, core::NocNodeKind kind) const;

  [[nodiscard]] const PlatformConfig& config() const { return config_; }

  /// The fault injector, or null when the config describes no faults.
  [[nodiscard]] faults::FaultInjector* fault_injector() {
    return injector_.get();
  }
  [[nodiscard]] const faults::FaultInjector* fault_injector() const {
    return injector_.get();
  }

private:
  PlatformConfig config_;
  sim::Engine engine_;
  sim::ClockDomain host_;
  sim::ClockDomain kernel_;
  sim::ClockDomain bus_clock_;
  sim::ClockDomain noc_clock_;

  std::unique_ptr<mem::Sdram> sdram_;
  std::unique_ptr<bus::Bus> bus_;
  std::unique_ptr<bus::Dma> dma_;
  std::vector<std::unique_ptr<mem::Bram>> brams_;
  std::unique_ptr<noc::Network> network_;
  std::map<std::pair<std::size_t, core::NocNodeKind>, std::uint32_t>
      noc_nodes_;
  std::unique_ptr<faults::FaultInjector> injector_;
};

}  // namespace hybridic::sys
