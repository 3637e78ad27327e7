// Google-benchmark micro-benchmarks of the bus/DMA substrate.
#include <benchmark/benchmark.h>

#include "bus/bus.hpp"
#include "bus/dma.hpp"
#include "mem/bram.hpp"
#include "mem/sdram.hpp"

namespace {

using namespace hybridic;

const sim::ClockDomain kBusClock{"bus", Frequency::megahertz(100)};
const sim::ClockDomain kHostClock{"host", Frequency::megahertz(400)};
const sim::ClockDomain kKernelClock{"kernel", Frequency::megahertz(100)};

void BM_BusTransactions(benchmark::State& state) {
  const auto count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    bus::Bus bus{"plb", engine, kBusClock,
                 bus::BusConfig{8, 16, Cycles{2}, Cycles{1}, 2}};
    for (int i = 0; i < count; ++i) {
      bus.submit(bus::BusRequest{static_cast<std::uint32_t>(i % 2),
                                 Bytes{128}, Picoseconds{0}, {}});
    }
    engine.run();
    benchmark::DoNotOptimize(bus.transactions());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_BusTransactions)->Arg(16)->Arg(256)->Arg(4096);

void BM_DmaBlockTransfer(benchmark::State& state) {
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    mem::Sdram sdram{"sdram", kBusClock, mem::SdramConfig{}};
    bus::Bus bus{"plb", engine, kBusClock,
                 bus::BusConfig{4, 1, Cycles{2}, Cycles{1}, 2}};
    bus::Dma dma{"dma", engine, bus, sdram, kHostClock,
                 bus::DmaConfig{Cycles{50}, 1024}, 1};
    mem::Bram bram{"bram", kKernelClock, Bytes{1024 * 1024}, 4};
    Picoseconds done{0};
    dma.transfer(bus::DmaDirection::kMemToLocal, Bytes{bytes}, bram,
                 [&done](Picoseconds at) { done = at; });
    engine.run();
    benchmark::DoNotOptimize(done);
    state.counters["sim_time_us"] = done.microseconds();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DmaBlockTransfer)->Arg(1024)->Arg(65536)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
