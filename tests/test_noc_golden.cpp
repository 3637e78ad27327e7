// Cycle-exact goldens of the flit-level NoC: seeded traffic through a 4x4
// noc::Network, pinned message by message.
//
// Each scenario drives one traffic pattern (hotspot, uniform random, or
// time-staggered with loopback and zero-byte messages) under one router
// configuration, or a fault run with flit corruption, CRC retransmission
// and a dead link, and writes one line per message (id, source,
// destination, bytes, send and delivery time, delivery order), the
// per-adapter counters, NetworkStats, the engine's final time and event
// count, and the fault counters. Any change to arbitration, backpressure,
// pipelining, packetization, injection order or retransmission moves at
// least one of these numbers. Regenerate after an intentional model change
// with
//   HYBRIDIC_UPDATE_NOC_GOLDENS=1 ctest -R NocGolden
// and review the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "noc/network.hpp"
#include "util/rng.hpp"

namespace hybridic::noc {
namespace {

constexpr std::uint32_t kDim = 4;
constexpr std::uint32_t kNodes = kDim * kDim;
/// Simulated-time bound of every run: a scenario that stopped draining
/// (a deadlock) shows as undelivered messages instead of a hang.
constexpr Picoseconds kRunLimit{1'000'000'000'000ULL / 100};  // 10 ms

std::string goldens_dir() {
  return std::string{HYBRIDIC_TESTS_SOURCE_DIR} + "/fixtures/noc";
}

bool update_mode() {
  const char* flag = std::getenv("HYBRIDIC_UPDATE_NOC_GOLDENS");
  return flag != nullptr && std::string{flag} == "1";
}

struct Send {
  Picoseconds at{0};
  std::uint32_t source = 0;
  std::uint32_t destination = 0;
  std::uint64_t bytes = 0;
};

/// Several 4-64 KiB senders into sink node 5, all at t = 0.
std::vector<Send> hotspot_traffic(std::uint64_t seed, std::uint32_t senders,
                                  std::uint64_t max_bytes) {
  Rng rng{seed};
  std::vector<Send> sends;
  std::vector<bool> used(kNodes, false);
  used[5] = true;
  while (sends.size() < senders) {
    const auto source = static_cast<std::uint32_t>(rng.below(kNodes));
    if (used[source]) {
      continue;
    }
    used[source] = true;
    sends.push_back({Picoseconds{0}, source, 5, rng.between(4096, max_bytes)});
  }
  return sends;
}

/// Uniform random pairs of 16-1024 B at t = 0, as in the NoC stress test.
std::vector<Send> uniform_traffic() {
  Rng rng{77};
  std::vector<Send> sends;
  for (int m = 0; m < 60; ++m) {
    const auto source = static_cast<std::uint32_t>(rng.below(kNodes));
    const auto destination = static_cast<std::uint32_t>(rng.below(kNodes));
    if (source == destination) {
      continue;
    }
    sends.push_back({Picoseconds{0}, source, destination,
                     rng.between(16, 1024)});
  }
  return sends;
}

/// Sends spread over `span_ps`, so the network suspends and wakes between
/// them; every seventh is zero bytes and self-sends are kept (loopback).
std::vector<Send> staggered_traffic(std::uint64_t seed, int count,
                                    std::uint64_t span_ps,
                                    std::uint64_t max_bytes) {
  Rng rng{seed};
  std::vector<Send> sends;
  for (int m = 0; m < count; ++m) {
    Send send;
    send.at = Picoseconds{rng.below(span_ps)};
    send.source = static_cast<std::uint32_t>(rng.below(kNodes));
    send.destination = static_cast<std::uint32_t>(rng.below(kNodes));
    send.bytes = m % 7 == 3 ? 0 : rng.between(1, max_bytes);
    sends.push_back(send);
  }
  return sends;
}

struct Scenario {
  std::string name;
  NetworkConfig config;
  std::vector<Send> sends;
  std::optional<faults::FaultSpec> faults;
};

/// gtest prints a parameter beside its test name; the name alone keeps
/// the listed ctest names free of object bytes.
void PrintTo(const Scenario& scenario, std::ostream* os) {
  *os << scenario.name;
}

NetworkConfig with_pipeline(std::uint32_t cycles) {
  NetworkConfig config;
  config.router.pipeline_cycles = cycles;
  return config;
}

NetworkConfig with_buffer(std::uint32_t flits) {
  NetworkConfig config;
  config.router.buffer_flits = flits;
  return config;
}

NetworkConfig with_packet_payload(std::uint32_t bytes) {
  NetworkConfig config;
  config.max_packet_payload_bytes = bytes;
  return config;
}

std::vector<Scenario> scenarios() {
  const std::vector<std::pair<std::string, NetworkConfig>> configs = {
      {"default", NetworkConfig{}},
      {"pipe1", with_pipeline(1)},
      {"pipe4", with_pipeline(4)},
      {"buf2", with_buffer(2)},
      {"pkt16", with_packet_payload(16)},
  };
  std::vector<Scenario> all;
  for (const auto& [suffix, config] : configs) {
    all.push_back({"hotspot_" + suffix, config,
                   hotspot_traffic(3, 6, 65536), std::nullopt});
    all.push_back({"uniform_" + suffix, config, uniform_traffic(),
                   std::nullopt});
    all.push_back({"staggered_" + suffix, config,
                   staggered_traffic(21, 80, 20'000'000, 1024),
                   std::nullopt});
  }

  faults::FaultSpec crc;
  crc.seed = 11;
  crc.flit_corruption_rate = 0.002;
  crc.resilience.noc_crc = true;
  all.push_back({"faults_crc_hotspot", NetworkConfig{},
                 hotspot_traffic(5, 4, 16384), crc});

  faults::FaultSpec raw = crc;
  raw.resilience.noc_crc = false;
  all.push_back({"faults_nocrc_hotspot", NetworkConfig{},
                 hotspot_traffic(5, 4, 16384), raw});

  // The dead link switches every hop to the BFS table, which is not
  // deadlock-free under load: light, staggered traffic, and a retransmit
  // budget small enough that some packets give up.
  faults::FaultSpec dead = crc;
  dead.seed = 17;
  dead.flit_corruption_rate = 0.004;
  dead.resilience.noc_max_retransmits = 2;
  dead.dead_links = {{5, 6}};
  all.push_back({"faults_crc_deadlink", NetworkConfig{},
                 staggered_traffic(31, 12, 120'000'000, 4096), dead});
  return all;
}

/// Runs `scenario` and renders everything it pins.
std::string run_scenario(const Scenario& scenario) {
  const sim::ClockDomain clock{"noc", Frequency::megahertz(150)};
  std::optional<faults::FaultInjector> injector;
  if (scenario.faults.has_value()) {
    injector.emplace(*scenario.faults);
  }
  sim::Engine engine;
  Network network{"noc", engine, clock, Mesh2D{kDim, kDim}, scenario.config};
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    network.attach_adapter(node, "n" + std::to_string(node),
                           node % 2 == 0 ? AdapterKind::kAccelerator
                                         : AdapterKind::kLocalMemory);
  }
  if (injector.has_value()) {
    network.set_faults(&*injector);
  }

  struct Record {
    std::uint64_t id = 0;
    std::optional<Picoseconds> delivered;
    std::uint64_t order = 0;
  };
  std::vector<Record> records(scenario.sends.size());
  std::uint64_t deliveries = 0;
  const auto issue = [&](std::size_t index) {
    const Send& send = scenario.sends[index];
    Record& record = records[index];
    record.id = network.send(
        send.source, send.destination, Bytes{send.bytes},
        [&record, &deliveries](std::uint64_t, Bytes, Picoseconds at) {
          record.delivered = at;
          record.order = ++deliveries;
        });
  };
  for (std::size_t i = 0; i < scenario.sends.size(); ++i) {
    if (scenario.sends[i].at.count() == 0) {
      issue(i);
    } else {
      engine.schedule_at(scenario.sends[i].at, [&issue, i] { issue(i); });
    }
  }
  engine.run(kRunLimit);

  std::ostringstream out;
  const RouterConfig& router = scenario.config.router;
  out << "scenario " << scenario.name << "\n";
  // Every router grants round-robin, which is WRR at unit weights.
  out << "config buffer_flits=" << router.buffer_flits
      << " pipeline_cycles=" << router.pipeline_cycles << " wrr=1,1,1,1,1"
      << " max_packet_payload_bytes="
      << scenario.config.max_packet_payload_bytes << "\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Send& send = scenario.sends[i];
    const Record& record = records[i];
    out << "msg id=" << record.id << " src=" << send.source
        << " dst=" << send.destination << " bytes=" << send.bytes
        << " sent_ps=" << send.at.count() << " delivered_ps=";
    if (record.delivered.has_value()) {
      out << record.delivered->count() << " order=" << record.order;
    } else {
      out << "none";
    }
    out << "\n";
  }
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    const Adapter& adapter = *network.adapter(node);
    out << "adapter node=" << node << " sent=" << adapter.messages_sent()
        << " received=" << adapter.messages_received()
        << " injected=" << adapter.flits_injected()
        << " busy=" << adapter.busy() << "\n";
  }
  out << "stats flits_ejected=" << network.stats().flits_ejected
      << " messages_delivered=" << network.stats().messages_delivered
      << " inflight=" << network.inflight_messages() << "\n";
  out << "engine now_ps=" << engine.now().count()
      << " events=" << engine.events_executed()
      << " pending=" << engine.has_pending() << "\n";
  if (injector.has_value()) {
    const faults::FaultStats& stats = injector->stats();
    out << "faults flits_corrupted=" << stats.flits_corrupted
        << " packets_retransmitted=" << stats.packets_retransmitted
        << " retransmit_give_ups=" << stats.retransmit_give_ups
        << " messages_lost=" << stats.messages_lost
        << " corrupted_bytes=" << stats.corrupted_bytes << "\n";
  }
  return out.str();
}

class NocGolden : public ::testing::TestWithParam<Scenario> {};

TEST_P(NocGolden, MatchesRecordedRun) {
  const Scenario& scenario = GetParam();
  const std::string produced = run_scenario(scenario);
  // The golden pins what the NoC did; this pins that it finished. A
  // scenario whose traffic stops draining is a scenario bug, not a golden.
  EXPECT_EQ(produced.find("delivered_ps=none"), std::string::npos);
  EXPECT_NE(produced.find(" inflight=0\n"), std::string::npos);
  const std::string path = goldens_dir() + "/" + scenario.name + ".txt";
  if (update_mode()) {
    std::filesystem::create_directories(goldens_dir());
    std::ofstream out{path, std::ios::binary};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << produced;
    return;
  }
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good())
      << path << " missing; regenerate with HYBRIDIC_UPDATE_NOC_GOLDENS=1";
  const std::string golden{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
  EXPECT_EQ(produced, golden)
      << scenario.name
      << " drifted: the NoC no longer moves flits cycle for cycle as it did "
         "when the golden was recorded";
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, NocGolden, ::testing::ValuesIn(scenarios()),
    [](const ::testing::TestParamInfo<Scenario>& param) {
      return param.param.name;
    });

}  // namespace
}  // namespace hybridic::noc
