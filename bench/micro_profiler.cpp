// Google-benchmark micro-benchmarks of the QUAD-style profiler: tracked
// access overhead in both attribution modes, shadow-memory scans and bulk
// runs, and full application profiling (the paper apps profile in
// kDeferred mode, synthetic designs as whole-buffer address runs).
#include <benchmark/benchmark.h>

#include <vector>

#include "apps/canny.hpp"
#include "apps/fluid.hpp"
#include "apps/jpeg.hpp"
#include "apps/klt.hpp"
#include "apps/synthetic.hpp"
#include "dse/campaign.hpp"
#include "prof/tracked.hpp"

namespace {

using namespace hybridic;

/// Args: element count, then 0 = kEager, 1 = kDeferred.
void BM_TrackedWriteRead(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  prof::QuadProfiler q{state.range(1) == 0 ? prof::ProfileMode::kEager
                                           : prof::ProfileMode::kDeferred};
  const auto writer = q.declare("writer");
  const auto reader = q.declare("reader");
  prof::TrackedBuffer<float> buffer{q, "buf", n};
  for (auto _ : state) {
    {
      prof::ScopedFunction scope{q, writer};
      for (std::size_t i = 0; i < n; ++i) {
        buffer.set(i, static_cast<float>(i));
      }
    }
    float sum = 0.0F;
    {
      prof::ScopedFunction scope{q, reader};
      for (std::size_t i = 0; i < n; ++i) {
        sum += buffer.get(i);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_TrackedWriteRead)
    ->ArgNames({"n", "deferred"})
    ->ArgsProduct({{1024, 65536}, {0, 1}});

void BM_ShadowScanRuns(benchmark::State& state) {
  prof::ShadowMemory shadow;
  // Alternating producers to create many runs.
  for (std::uint64_t i = 0; i < 64; ++i) {
    shadow.write(i * 128, 128, static_cast<prof::FunctionId>(i % 4));
  }
  for (auto _ : state) {
    std::uint64_t total = 0;
    shadow.scan(0, 64 * 128,
                [&total](std::uint64_t, std::uint64_t len,
                         prof::FunctionId) { total += len; });
    benchmark::DoNotOptimize(total);
  }
  state.SetBytesProcessed(state.iterations() * 64 * 128);
}
BENCHMARK(BM_ShadowScanRuns);

/// One 1 MiB run, as a synthetic design's buffer: written whole, then
/// scanned whole (256 uniform pages, four chunks).
void BM_ShadowBulkRun(benchmark::State& state) {
  constexpr std::int64_t kBytes = 1 << 20;
  for (auto _ : state) {
    prof::ShadowMemory shadow;
    shadow.write(0x1000, kBytes, 1);
    std::uint64_t runs = 0;
    shadow.scan(0x1000, kBytes,
                [&runs](std::uint64_t, std::uint64_t, prof::FunctionId) {
                  ++runs;
                });
    benchmark::DoNotOptimize(runs);
  }
  state.SetBytesProcessed(state.iterations() * 2 * kBytes);
}
BENCHMARK(BM_ShadowBulkRun);

/// The first 200 designs of the campaign's default sweep at seed 1, each
/// profiled and sealed as the analytic campaign does.
void BM_ProfileSynthetic(benchmark::State& state) {
  std::vector<apps::SyntheticConfig> configs;
  for (std::uint64_t i = 0; i < 200; ++i) {
    configs.push_back(dse::sample_config(dse::SweepSpace{}, 1, i));
  }
  for (auto _ : state) {
    std::size_t edges = 0;
    for (const apps::SyntheticConfig& config : configs) {
      edges += apps::make_synthetic_app(config).graph().edge_count();
    }
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_ProfileSynthetic)->Unit(benchmark::kMillisecond);

void BM_ProfileCanny(benchmark::State& state) {
  for (auto _ : state) {
    apps::CannyConfig config;
    config.width = 96;
    config.height = 64;
    const apps::ProfiledApp app = apps::run_canny(config);
    benchmark::DoNotOptimize(app.graph().edges().size());
  }
}
BENCHMARK(BM_ProfileCanny)->Unit(benchmark::kMillisecond);

void BM_ProfileJpeg(benchmark::State& state) {
  for (auto _ : state) {
    apps::JpegConfig config;
    config.width = 48;
    config.height = 48;
    const apps::ProfiledApp app = apps::run_jpeg(config);
    benchmark::DoNotOptimize(app.graph().edges().size());
  }
}
BENCHMARK(BM_ProfileJpeg)->Unit(benchmark::kMillisecond);

void BM_ProfileFluid(benchmark::State& state) {
  for (auto _ : state) {
    const apps::ProfiledApp app = apps::run_fluid(apps::FluidConfig{});
    benchmark::DoNotOptimize(app.graph().edges().size());
  }
}
BENCHMARK(BM_ProfileFluid)->Unit(benchmark::kMillisecond);

void BM_ProfileKlt(benchmark::State& state) {
  for (auto _ : state) {
    const apps::ProfiledApp app = apps::run_klt(apps::KltConfig{});
    benchmark::DoNotOptimize(app.graph().edges().size());
  }
}
BENCHMARK(BM_ProfileKlt)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
