// Google-benchmark micro-benchmarks of Algorithm 1 and its search: NoC
// placement alone, the whole design pass on sampled synthetic configs,
// the congruence signature that keys the tiers' and the annealer's
// memos, and one annealing search at the serve defaults.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/interconnect_design.hpp"
#include "core/noc_placement.hpp"
#include "dse/campaign.hpp"
#include "search/anneal.hpp"
#include "sys/experiment.hpp"
#include "tiers/congruence.hpp"
#include "util/rng.hpp"

namespace {

using namespace hybridic;

/// One profiled synthetic config, designed once (outside the timed loops).
struct Sampled {
  std::shared_ptr<const apps::ProfiledApp> app;
  sys::AppSchedule schedule;
  core::DesignInput input;
  core::DesignResult design;
};

/// The first 32 configs of campaign seed 1, as dse_campaign samples them.
const std::vector<Sampled>& sampled() {
  static const std::vector<Sampled> cases = [] {
    std::vector<Sampled> out;
    for (std::uint64_t i = 0; i < 32; ++i) {
      Sampled c;
      c.app = std::make_shared<const apps::ProfiledApp>(
          apps::make_synthetic_app(
              dse::sample_config(dse::SweepSpace{}, 1, i)));
      c.schedule = c.app->schedule();
      c.input = sys::make_design_input(c.schedule, sys::PlatformConfig{});
      c.design = core::design_interconnect(c.input);
      out.push_back(std::move(c));
    }
    return out;
  }();
  return cases;
}

/// Arg: attachment count. A seeded problem with traffic on about a third
/// of the pairs, up to 1 MB each.
void BM_PlaceAttachments(benchmark::State& state) {
  core::PlacementProblem problem;
  problem.attachment_count = static_cast<std::uint32_t>(state.range(0));
  Rng rng{7};
  for (std::uint32_t a = 0; a < problem.attachment_count; ++a) {
    for (std::uint32_t b = a + 1; b < problem.attachment_count; ++b) {
      if (rng.chance(0.3)) {
        problem.traffic.emplace_back(a, b, rng.between(1, 1'000'000));
      }
    }
  }
  for (auto _ : state) {
    const core::PlacementResult result = core::place_attachments(problem);
    benchmark::DoNotOptimize(result.cost);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlaceAttachments)->Arg(8)->Arg(16)->Arg(32);

/// Items are designs; each iteration designs the next sampled config.
void BM_DesignInterconnect(benchmark::State& state) {
  const std::vector<Sampled>& cases = sampled();
  std::size_t next = 0;
  for (auto _ : state) {
    const core::DesignResult design =
        core::design_interconnect(cases[next].input);
    benchmark::DoNotOptimize(design.instances.data());
    next = (next + 1) % cases.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DesignInterconnect);

/// Items are keys; each iteration keys the next sampled design.
void BM_CongruenceSignature(benchmark::State& state) {
  const std::vector<Sampled>& cases = sampled();
  std::size_t next = 0;
  for (auto _ : state) {
    const Sampled& c = cases[next];
    benchmark::DoNotOptimize(tiers::congruence_key_of(
        tiers::congruence_signature(c.schedule, c.design,
                                    c.input.theta.seconds_per_byte)));
    next = (next + 1) % cases.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CongruenceSignature);

/// One search of sampled config 0 at hybridic_serve's defaults.
void BM_AnnealSearch(benchmark::State& state) {
  const Sampled& c = sampled().front();
  search::AnnealOptions options;
  options.restarts = 2;
  options.iterations = 60;
  for (auto _ : state) {
    const search::SearchResult result = search::anneal_interconnect(
        c.schedule, c.input, sys::PlatformConfig{}, options);
    benchmark::DoNotOptimize(result.best_luts);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnnealSearch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
