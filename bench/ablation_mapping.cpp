// Ablation: the adaptive mapping function (Table I) and the shared-local-
// memory step vs the naive "attach everything to the NoC" strategy —
// routers/adapters instantiated, interconnect area, and measured runtime,
// across the four paper applications and a set of synthetic shapes.
//
// Each (app, strategy-pair) evaluation is one batch-runner job; profiles
// come from the cache and rows are emitted in submission order, so the
// table and CSV are byte-identical at any --threads value.
#include <iostream>

#include "apps/synthetic.hpp"
#include "bench/bench_common.hpp"
#include "core/interconnect_design.hpp"

namespace {

using namespace hybridic;

struct Row {
  std::string app;
  std::uint32_t adaptive_routers = 0;
  std::uint32_t naive_routers = 0;
  core::Resources adaptive_area;
  core::Resources naive_area;
  double adaptive_seconds = 0.0;
  double naive_seconds = 0.0;
};

Row evaluate(const std::string& name, const sys::AppSchedule& schedule) {
  const sys::PlatformConfig config;
  core::DesignInput input = sys::make_design_input(schedule, config);
  const core::DesignResult adaptive = core::design_interconnect(input);

  core::DesignInput naive_input = input;
  naive_input.enable_shared_memory = false;
  naive_input.enable_adaptive_mapping = false;
  const core::DesignResult naive = core::design_interconnect(naive_input);

  Row row;
  row.app = name;
  row.adaptive_routers =
      adaptive.uses_noc() ? adaptive.noc->router_count() : 0;
  row.naive_routers = naive.uses_noc() ? naive.noc->router_count() : 0;
  row.adaptive_area = core::interconnect_resources(adaptive);
  row.naive_area = core::interconnect_resources(naive);
  row.adaptive_seconds =
      sys::run_designed(schedule, adaptive, config).total_seconds;
  row.naive_seconds =
      sys::run_designed(schedule, naive, config).total_seconds;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = bench::parse_threads(argc, argv);
  apps::ProfileCache cache;
  sys::BatchRunner runner{threads};

  Table table{
      "Ablation — adaptive mapping + shared memory vs naive NoC-everything"};
  table.set_header({"app", "routers (adaptive)", "routers (naive)",
                    "interconnect LUTs (adaptive)", "(naive)",
                    "time (adaptive)", "(naive)"});
  CsvWriter csv{bench::csv_path("ablation_mapping"),
                {"app", "adaptive_routers", "naive_routers",
                 "adaptive_luts", "naive_luts", "adaptive_seconds",
                 "naive_seconds"}};

  std::vector<sys::BatchRunner::Job<Row>> jobs;
  for (const auto& name : apps::paper_app_names()) {
    jobs.push_back({"ablation-mapping/" + name,
                    [&cache, name](sys::JobContext&) {
                      const auto app = cache.paper_app(name);
                      return evaluate(name, app->schedule());
                    }});
  }
  for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    apps::SyntheticConfig config;
    config.seed = seed;
    config.kernel_count = 8;
    jobs.push_back({"ablation-mapping/" +
                        apps::ProfileCache::synthetic_key(config),
                    [&cache, config](sys::JobContext&) {
                      const auto app = cache.synthetic_app(config);
                      return evaluate(app->name, app->schedule());
                    }});
  }
  const std::vector<Row> rows = runner.run(std::move(jobs));

  for (const Row& row : rows) {
    table.add_row({row.app, std::to_string(row.adaptive_routers),
                   std::to_string(row.naive_routers),
                   std::to_string(row.adaptive_area.luts),
                   std::to_string(row.naive_area.luts),
                   format_fixed(row.adaptive_seconds * 1e3, 3) + " ms",
                   format_fixed(row.naive_seconds * 1e3, 3) + " ms"});
    csv.add_row({row.app, std::to_string(row.adaptive_routers),
                 std::to_string(row.naive_routers),
                 std::to_string(row.adaptive_area.luts),
                 std::to_string(row.naive_area.luts),
                 format_fixed(row.adaptive_seconds, 6),
                 format_fixed(row.naive_seconds, 6)});
  }
  table.render(std::cout);
  std::cout << "takeaway: the adaptive strategy keeps performance "
               "(time within a few percent of naive) while instantiating "
               "fewer routers and adapters — the paper's Table IV claim\n";
  bench::print_batch_metrics(runner, cache);
  return 0;
}
