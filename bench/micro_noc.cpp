// Google-benchmark micro-benchmarks of the NoC substrate: message latency
// and simulation throughput across mesh sizes and payloads.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>

#include "noc/network.hpp"
#include "sim/engine.hpp"

namespace {

using namespace hybridic;

const sim::ClockDomain kNocClock{"noc", Frequency::megahertz(150)};

void BM_NocSingleMessage(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  const auto bytes = static_cast<std::uint64_t>(state.range(1));
  for (auto _ : state) {
    sim::Engine engine;
    noc::Network network{"noc", engine, kNocClock,
                         noc::Mesh2D{dim, dim}, noc::NetworkConfig{}};
    network.attach_adapter(0, "src", noc::AdapterKind::kAccelerator);
    network.attach_adapter(dim * dim - 1, "dst",
                           noc::AdapterKind::kLocalMemory);
    Picoseconds delivered{0};
    network.send(0, dim * dim - 1, Bytes{bytes},
                 [&delivered](std::uint64_t, Bytes, Picoseconds at) {
                   delivered = at;
                 });
    engine.run();
    benchmark::DoNotOptimize(delivered);
    state.counters["sim_latency_us"] = delivered.microseconds();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NocSingleMessage)
    ->Args({2, 1024})
    ->Args({4, 1024})
    ->Args({8, 1024})
    ->Args({4, 65536});

void BM_NocAllToAll(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    noc::Network network{"noc", engine, kNocClock,
                         noc::Mesh2D{dim, dim}, noc::NetworkConfig{}};
    for (std::uint32_t n = 0; n < dim * dim; ++n) {
      std::string name = "n";
      name += std::to_string(n);
      network.attach_adapter(n, std::move(name),
                             noc::AdapterKind::kAccelerator);
    }
    int delivered = 0;
    for (std::uint32_t src = 0; src < dim * dim; ++src) {
      for (std::uint32_t dst = 0; dst < dim * dim; ++dst) {
        if (src != dst) {
          network.send(src, dst, Bytes{256},
                       [&delivered](std::uint64_t, Bytes, Picoseconds) {
                         ++delivered;
                       });
        }
      }
    }
    engine.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0) * (state.range(0) * state.range(0) - 1));
}
BENCHMARK(BM_NocAllToAll)->Arg(2)->Arg(3)->Arg(4);

// The cycle sweep's traffic shape: several messages in flight at once,
// converging on one sink that ejects about one flit per cycle. Items are
// ejected flits, so items_per_second is the NoC's flits/s.
void BM_NocHotspot(benchmark::State& state) {
  constexpr std::uint32_t kSink = 5;
  std::int64_t flits = 0;
  for (auto _ : state) {
    sim::Engine engine;
    noc::Network network{"noc", engine, kNocClock, noc::Mesh2D{4, 4},
                         noc::NetworkConfig{}};
    network.attach_adapter(kSink, "sink", noc::AdapterKind::kLocalMemory);
    Picoseconds last{0};
    for (const std::uint32_t source : {0U, 3U, 12U, 15U}) {
      std::string name = "src";
      name += std::to_string(source);
      network.attach_adapter(source, std::move(name),
                             noc::AdapterKind::kAccelerator);
      network.send(source, kSink, Bytes{16384},
                   [&last](std::uint64_t, Bytes, Picoseconds at) {
                     last = std::max(last, at);
                   });
    }
    engine.run();
    benchmark::DoNotOptimize(last);
    flits += static_cast<std::int64_t>(network.stats().flits_ejected);
    state.counters["sim_latency_us"] = last.microseconds();
  }
  state.SetItemsProcessed(flits);
}
BENCHMARK(BM_NocHotspot);

}  // namespace

BENCHMARK_MAIN();
