// Fault-injection subsystem tests: per-site RNG stream independence, the
// LinkState survivor-graph router, CRC retransmission under flit corruption,
// blackholed sends across fault-disconnected pairs, DMA bus-retry budgets,
// and the watchdog-expired wait_all path.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "bus/bus.hpp"
#include "bus/dma.hpp"
#include "faults/injector.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "sys/engine/ops.hpp"
#include "sys/executor.hpp"
#include "sys/platform.hpp"
#include "util/error.hpp"

namespace hybridic {
namespace {

using faults::FaultInjector;
using faults::FaultSpec;
using faults::SiteKind;

// ---------------------------------------------------------------------------
// Injector: deterministic, creation-order-free per-site streams.
// ---------------------------------------------------------------------------

TEST(FaultInjectorRng, StreamsIndependentOfCreationOrder) {
  FaultSpec spec;
  spec.seed = 42;
  FaultInjector forward{spec};
  FaultInjector backward{spec};
  // Touch sites in opposite orders; each site's stream must produce the
  // same sequence regardless.
  std::vector<std::uint64_t> a;
  for (std::uint64_t site = 0; site < 4; ++site) {
    a.push_back(forward.stream(SiteKind::kNocFlit, site).next());
  }
  std::vector<std::uint64_t> b(4);
  for (std::uint64_t site = 4; site-- > 0;) {
    b[site] = backward.stream(SiteKind::kNocFlit, site).next();
  }
  EXPECT_EQ(a, b);
}

TEST(FaultInjectorRng, KindAndSiteSeparateStreams) {
  FaultSpec spec;
  spec.seed = 7;
  FaultInjector injector{spec};
  const std::uint64_t flit0 = injector.stream(SiteKind::kNocFlit, 0).next();
  const std::uint64_t flit1 = injector.stream(SiteKind::kNocFlit, 1).next();
  const std::uint64_t bus0 = injector.stream(SiteKind::kBus, 0).next();
  EXPECT_NE(flit0, flit1);
  EXPECT_NE(flit0, bus0);
}

TEST(FaultInjectorRng, ZeroRateBurnsNoDraws) {
  FaultSpec spec;
  spec.seed = 3;
  FaultInjector with_draws{spec};
  FaultInjector without{spec};
  EXPECT_FALSE(without.draw(SiteKind::kSdram, 0, 0.0));  // No stream touched.
  // The first real draw after a zero-rate draw matches a fresh injector's.
  const bool first = with_draws.draw(SiteKind::kSdram, 0, 0.5);
  const bool second = without.draw(SiteKind::kSdram, 0, 0.5);
  EXPECT_EQ(first, second);
}

TEST(FaultInjectorRng, EventLogCapsPerKindButCountsDrops) {
  FaultInjector injector{FaultSpec{}};
  for (int i = 0; i < 300; ++i) {
    injector.record(faults::FaultKind::kFlitCorruption, 0.0, 4, "x");
  }
  EXPECT_EQ(injector.events().size(), 256U);
  EXPECT_EQ(injector.events_dropped(), 44U);
}

// ---------------------------------------------------------------------------
// LinkState: BFS routing over the surviving graph.
// ---------------------------------------------------------------------------

TEST(LinkState, RejectsBadLinkSpecs) {
  const noc::Mesh2D mesh{3, 3};
  EXPECT_THROW(noc::LinkState(mesh, {{0, 99}}), ConfigError);
  EXPECT_THROW(noc::LinkState(mesh, {{0, 4}}), ConfigError);  // Diagonal.
  EXPECT_THROW(noc::LinkState(mesh, {{2, 2}}), ConfigError);  // Self.
}

TEST(LinkState, RoutesAroundOneDeadLink) {
  // 3x3 mesh, kill 0-1 ((0,0)-(1,0)). Node 0 must still reach every node
  // via its surviving north link.
  const noc::Mesh2D mesh{3, 3};
  noc::LinkState state{mesh, {{0, 1}}};
  EXPECT_EQ(state.dead_link_count(), 1U);
  EXPECT_FALSE(state.link_up(0, noc::PortDir::kEast));
  EXPECT_TRUE(state.link_up(0, noc::PortDir::kNorth));
  for (std::uint32_t dst = 0; dst < 9; ++dst) {
    EXPECT_TRUE(state.reachable(0, dst)) << dst;
  }
  // First hop toward node 2 cannot be the dead east link.
  const auto hop = state.next_hop(0, 2);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, noc::PortDir::kNorth);
  // Walking next_hop from 0 to 2 terminates (loop-free) within the mesh.
  std::uint32_t current = 0;
  for (int steps = 0; steps < 9; ++steps) {
    const auto dir = state.next_hop(current, 2);
    ASSERT_TRUE(dir.has_value());
    if (*dir == noc::PortDir::kLocal) {
      break;
    }
    current = *mesh.neighbor(current, *dir);
  }
  EXPECT_EQ(current, 2U);
}

TEST(LinkState, DetectsDisconnection) {
  // Kill both links of corner node 0 on a 2x2 mesh: unreachable.
  const noc::Mesh2D mesh{2, 2};
  noc::LinkState state{mesh, {{0, 1}, {0, 2}}};
  EXPECT_FALSE(state.reachable(0, 3));
  EXPECT_FALSE(state.next_hop(0, 3).has_value());
  EXPECT_TRUE(state.reachable(1, 3));
  EXPECT_TRUE(state.reachable(0, 0));  // Self is always reachable.
}

// ---------------------------------------------------------------------------
// Network-level: corruption, CRC retransmission, blackholes.
// ---------------------------------------------------------------------------

struct FaultyNet {
  explicit FaultyNet(FaultSpec spec)
      : injector(spec),
        clock{"noc", Frequency::megahertz(150)},
        network{"noc", engine, clock, noc::Mesh2D{3, 3},
                noc::NetworkConfig{}} {
    network.attach_adapter(0, "src", noc::AdapterKind::kAccelerator);
    network.attach_adapter(8, "dst", noc::AdapterKind::kLocalMemory);
    network.set_faults(&injector);
  }

  Picoseconds send_and_run(Bytes bytes) {
    Picoseconds delivered{0};
    network.send(0, 8, bytes, [&](std::uint64_t, Bytes, Picoseconds at) {
      delivered = at;
    });
    engine.run();
    return delivered;
  }

  FaultInjector injector;
  sim::Engine engine;
  sim::ClockDomain clock;
  noc::Network network;
};

TEST(NocFaults, CrcRetransmissionDeliversCleanUnderCorruption) {
  FaultSpec spec;
  spec.seed = 11;
  spec.flit_corruption_rate = 0.02;
  spec.resilience.noc_crc = true;
  spec.resilience.noc_max_retransmits = 64;
  FaultyNet net{spec};
  const Picoseconds delivered = net.send_and_run(Bytes{16'384});
  EXPECT_GT(delivered.count(), 0U);
  const faults::FaultStats& stats = net.injector.stats();
  EXPECT_GT(stats.flits_corrupted, 0U);
  EXPECT_GT(stats.packets_retransmitted, 0U);
  // Every corrupted packet recovered within budget: nothing delivered bad.
  EXPECT_EQ(stats.retransmit_give_ups, 0U);
  EXPECT_EQ(stats.corrupted_bytes, 0U);
}

TEST(NocFaults, RetransmissionSlowsDelivery) {
  FaultSpec clean_spec;
  clean_spec.dead_links = {{3, 4}};  // Irrelevant link: injector exists,
                                     // corruption off, path untouched.
  FaultyNet clean{clean_spec};
  const Picoseconds base = clean.send_and_run(Bytes{16'384});

  FaultSpec spec;
  spec.seed = 11;
  spec.flit_corruption_rate = 0.02;
  spec.resilience.noc_crc = true;
  spec.resilience.noc_max_retransmits = 64;
  FaultyNet faulty{spec};
  const Picoseconds recovered = faulty.send_and_run(Bytes{16'384});
  EXPECT_GT(recovered.count(), base.count());
}

TEST(NocFaults, WithoutCrcCorruptedBytesAreDelivered) {
  FaultSpec spec;
  spec.seed = 11;
  spec.flit_corruption_rate = 0.02;
  spec.resilience.noc_crc = false;
  FaultyNet net{spec};
  const Picoseconds delivered = net.send_and_run(Bytes{16'384});
  EXPECT_GT(delivered.count(), 0U);
  const faults::FaultStats& stats = net.injector.stats();
  EXPECT_GT(stats.flits_corrupted, 0U);
  EXPECT_EQ(stats.packets_retransmitted, 0U);
  EXPECT_GT(stats.corrupted_bytes, 0U);
}

TEST(NocFaults, GiveUpAfterBudgetDeliversCorrupt) {
  FaultSpec spec;
  spec.seed = 5;
  spec.flit_corruption_rate = 1.0;  // Every flit corrupted: CRC can't win.
  spec.resilience.noc_crc = true;
  spec.resilience.noc_max_retransmits = 2;
  FaultyNet net{spec};
  const Picoseconds delivered = net.send_and_run(Bytes{256});
  EXPECT_GT(delivered.count(), 0U);  // Still delivered, just corrupt.
  const faults::FaultStats& stats = net.injector.stats();
  EXPECT_GT(stats.retransmit_give_ups, 0U);
  EXPECT_GT(stats.corrupted_bytes, 0U);
}

TEST(NocFaults, SameSeedSameStats) {
  FaultSpec spec;
  spec.seed = 99;
  spec.flit_corruption_rate = 0.05;
  spec.resilience.noc_crc = true;
  FaultyNet one{spec};
  FaultyNet two{spec};
  const Picoseconds a = one.send_and_run(Bytes{8'192});
  const Picoseconds b = two.send_and_run(Bytes{8'192});
  EXPECT_EQ(a, b);
  EXPECT_EQ(one.injector.stats().flits_corrupted,
            two.injector.stats().flits_corrupted);
  EXPECT_EQ(one.injector.stats().packets_retransmitted,
            two.injector.stats().packets_retransmitted);
}

TEST(NocFaults, DisconnectedSendIsBlackholedNotDelivered) {
  FaultSpec spec;
  spec.dead_links = {{0, 1}, {0, 3}};  // Isolate corner node 0 on 3x3.
  FaultyNet net{spec};
  const Picoseconds delivered = net.send_and_run(Bytes{1'024});
  EXPECT_EQ(delivered.count(), 0U);  // Callback never ran.
  EXPECT_EQ(net.injector.stats().messages_lost, 1U);
}

TEST(NocFaults, ReroutedMeshStillDeliversEverything) {
  FaultSpec spec;
  spec.dead_links = {{0, 1}};  // Dimension-order route 0->8 starts east.
  FaultyNet net{spec};
  EXPECT_TRUE(net.network.route_exists(0, 8));
  EXPECT_TRUE(net.network.route_detoured(0, 8));
  const Picoseconds delivered = net.send_and_run(Bytes{4'096});
  EXPECT_GT(delivered.count(), 0U);
  EXPECT_EQ(net.injector.stats().messages_lost, 0U);
}

// ---------------------------------------------------------------------------
// Bus/DMA: transfer errors against the retry budget.
// ---------------------------------------------------------------------------

TEST(BusFaults, RetryBudgetSpentThenChunksAcceptedCorrupt) {
  FaultSpec spec;
  spec.seed = 1;
  spec.bus_error_rate = 1.0;  // Every chunk errors.
  spec.resilience.bus_retry_budget = 2;
  FaultInjector injector{spec};

  const sim::ClockDomain bus_clock{"bus", Frequency::megahertz(100)};
  const sim::ClockDomain host_clock{"host", Frequency::megahertz(400)};
  const sim::ClockDomain kernel_clock{"kernel", Frequency::megahertz(100)};
  sim::Engine engine;
  mem::Sdram sdram{"sdram", bus_clock, mem::SdramConfig{8, Cycles{20}}};
  bus::Bus bus{"plb", engine, bus_clock,
               bus::BusConfig{8, 16, Cycles{2}, Cycles{1}, 2}};
  bus::Dma dma{"dma", engine, bus, sdram, host_clock,
               bus::DmaConfig{Cycles{40}, 1024}, 1};
  mem::Bram bram{"bram", kernel_clock, Bytes{64 * 1024}, 4};
  bus.set_faults(&injector);
  dma.set_faults(&injector);

  bool finished = false;
  dma.transfer(bus::DmaDirection::kMemToLocal, Bytes{2'048}, bram,
               [&](Picoseconds) { finished = true; });
  engine.run();
  EXPECT_TRUE(finished);
  const faults::FaultStats& stats = injector.stats();
  EXPECT_EQ(stats.bus_retries, 2U);  // Budget fully spent.
  // 2 original chunks + 2 retried chunks all errored; the ones past the
  // budget were accepted corrupted.
  EXPECT_EQ(stats.bus_errors, 4U);
  EXPECT_EQ(stats.corrupted_bytes, 2'048U);
}

TEST(BusFaults, StallsDelayGrantsDeterministically) {
  FaultSpec spec;
  spec.seed = 21;
  spec.bus_stall_rate = 1.0;
  spec.bus_stall_cycles = 16;

  const auto run_once = [&](FaultInjector* injector) {
    const sim::ClockDomain bus_clock{"bus", Frequency::megahertz(100)};
    const sim::ClockDomain host_clock{"host", Frequency::megahertz(400)};
    const sim::ClockDomain kernel_clock{"kernel",
                                        Frequency::megahertz(100)};
    sim::Engine engine;
    mem::Sdram sdram{"sdram", bus_clock, mem::SdramConfig{8, Cycles{20}}};
    bus::Bus bus{"plb", engine, bus_clock,
                 bus::BusConfig{8, 16, Cycles{2}, Cycles{1}, 2}};
    bus::Dma dma{"dma", engine, bus, sdram, host_clock,
                 bus::DmaConfig{Cycles{40}, 1024}, 1};
    mem::Bram bram{"bram", kernel_clock, Bytes{64 * 1024}, 4};
    if (injector != nullptr) {
      bus.set_faults(injector);
      dma.set_faults(injector);
    }
    Picoseconds done{0};
    dma.transfer(bus::DmaDirection::kMemToLocal, Bytes{1'024}, bram,
                 [&](Picoseconds at) { done = at; });
    engine.run();
    return done;
  };

  const Picoseconds clean = run_once(nullptr);
  FaultInjector stalling{spec};
  const Picoseconds stalled = run_once(&stalling);
  EXPECT_GT(stalled.count(), clean.count());
  EXPECT_GT(stalling.stats().bus_stalls, 0U);
  FaultInjector again{spec};
  EXPECT_EQ(run_once(&again), stalled);  // Same seed, same timing.
}

// ---------------------------------------------------------------------------
// Memory bit flips.
// ---------------------------------------------------------------------------

TEST(MemFaults, SdramAndBramBitFlipsAreCounted) {
  sys::PlatformConfig config;
  config.faults.seed = 2;
  config.faults.sdram_bitflip_rate = 1.0;
  config.faults.bram_bitflip_rate = 1.0;
  sys::Platform platform{config, 1, nullptr};
  ASSERT_NE(platform.fault_injector(), nullptr);
  bool finished = false;
  platform.dma().transfer(bus::DmaDirection::kMemToLocal, Bytes{512},
                          platform.bram(0),
                          [&](Picoseconds) { finished = true; });
  platform.engine().run();
  EXPECT_TRUE(finished);
  EXPECT_GE(platform.fault_injector()->stats().mem_bitflips, 2U);
}

// ---------------------------------------------------------------------------
// Watchdog: livelock (events never stop) vs deadlock (queue drained).
// ---------------------------------------------------------------------------

TEST(Watchdog, ExpiryNamesStuckOpsAndSimulatedTime) {
  sys::PlatformConfig config;
  config.watchdog_seconds = 0.001;
  sys::Platform platform{config, 0, nullptr};
  // An event far beyond the watchdog keeps the queue non-empty, so this is
  // a watchdog expiry, not a drain.
  platform.engine().schedule_at(Picoseconds{2'000'000'000'000ULL}, [] {});
  sys::engine::Pending stuck;
  stuck.label = "k9/noc#0->1";
  try {
    sys::engine::wait_all(platform, {&stuck});
    FAIL() << "wait_all should have thrown";
  } catch (const SimTimeoutError& e) {
    EXPECT_TRUE(e.watchdog_expired());
    ASSERT_EQ(e.stuck_ops().size(), 1U);
    EXPECT_EQ(e.stuck_ops()[0], "k9/noc#0->1");
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Property: a faulted synthetic run terminates cleanly or times out loudly.
// ---------------------------------------------------------------------------

/// Seeded synthetic apps under nonzero fault rates across every fabric.
/// The only acceptable outcomes are (a) the run completes with a
/// well-formed trace or (b) SimTimeoutError; hanging is caught by the
/// ctest-level timeout, silent trace corruption by the checks below.
class FaultedSynthetic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultedSynthetic, TerminatesOrTimesOutWithoutCorruptingTheTrace) {
  apps::SyntheticConfig config;
  config.seed = GetParam();
  config.kernel_count = 4;
  config.max_edge_bytes = 8192;
  config.max_work_units = 20000;
  apps::ProfiledApp app = apps::make_synthetic_app(config);
  const sys::AppSchedule schedule = app.schedule();

  sys::PlatformConfig platform;
  platform.faults.seed = GetParam() + 1;
  platform.faults.flit_corruption_rate = 0.05;
  platform.faults.bus_error_rate = 0.02;
  platform.faults.bus_stall_rate = 0.02;
  platform.faults.sdram_bitflip_rate = 0.001;
  // A short watchdog keeps the failure mode loud even if a fault wedges
  // the event queue.
  platform.watchdog_seconds = 5.0;

  try {
    const sys::RunResult run = run_baseline(schedule, platform);
    EXPECT_GT(run.total_seconds, 0.0);
    EXPECT_TRUE(std::isfinite(run.total_seconds));
    for (const sys::engine::TraceEvent& event : run.trace.events()) {
      EXPECT_LE(event.start_seconds, event.end_seconds + 1e-15);
      EXPECT_GE(event.start_seconds, 0.0);
      EXPECT_LE(event.end_seconds, run.total_seconds * (1.0 + 1e-9));
    }
    // Determinism holds under faults too: the injector streams are seeded.
    const sys::RunResult again = run_baseline(schedule, platform);
    EXPECT_EQ(run.total_seconds, again.total_seconds);
    EXPECT_EQ(run.trace.events().size(), again.trace.events().size());
    EXPECT_EQ(run.fault_stats.flits_corrupted,
              again.fault_stats.flits_corrupted);
  } catch (const SimTimeoutError& e) {
    // A loud, diagnosable timeout is an acceptable outcome.
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultedSynthetic,
                         ::testing::Values(3, 8, 21, 34, 55));

}  // namespace
}  // namespace hybridic
