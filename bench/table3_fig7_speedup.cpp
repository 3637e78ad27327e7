// Table III / Figure 7: speed-up of the proposed system with respect to
// software and to the baseline system, for the overall application and for
// the kernels alone.
#include <iostream>

#include "bench/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hybridic;
  const std::size_t threads = bench::parse_threads(argc, argv);
  apps::ProfileCache cache;
  sys::BatchRunner runner{threads};
  const auto experiments = bench::run_all_experiments(cache, runner);

  Table table{
      "Table III / Fig. 7 — proposed-system speed-ups (measured vs paper)"};
  table.set_header({"app", "vs SW app", "(paper)", "vs SW kern", "(paper)",
                    "vs base app", "(paper)", "vs base kern", "(paper)"});
  CsvWriter csv{bench::csv_path("table3_fig7_speedup"),
                {"app", "vs_sw_app", "vs_sw_kernels", "vs_base_app",
                 "vs_base_kernels"}};

  for (const auto& name : apps::paper_app_names()) {
    const sys::AppExperiment& exp = experiments.at(name);
    const bench::PaperReference& ref = bench::paper_reference().at(name);
    table.add_row({name, format_ratio(exp.proposed_app_speedup_vs_sw()),
                   format_ratio(ref.proposed_app_vs_sw),
                   format_ratio(exp.proposed_kernel_speedup_vs_sw()),
                   format_ratio(ref.proposed_kernel_vs_sw),
                   format_ratio(exp.proposed_app_speedup_vs_baseline()),
                   format_ratio(ref.proposed_app_vs_baseline),
                   format_ratio(exp.proposed_kernel_speedup_vs_baseline()),
                   format_ratio(ref.proposed_kernel_vs_baseline)});
    csv.add_row({name,
                 format_fixed(exp.proposed_app_speedup_vs_sw(), 3),
                 format_fixed(exp.proposed_kernel_speedup_vs_sw(), 3),
                 format_fixed(exp.proposed_app_speedup_vs_baseline(), 3),
                 format_fixed(exp.proposed_kernel_speedup_vs_baseline(),
                              3)});
  }
  table.render(std::cout);

  // Shape checks corresponding to the paper's headline claims.
  double best_vs_sw = 0.0;
  double best_vs_base = 0.0;
  std::string best_vs_base_app;
  for (const auto& [name, exp] : experiments) {
    best_vs_sw = std::max(best_vs_sw, exp.proposed_app_speedup_vs_sw());
    if (exp.proposed_app_speedup_vs_baseline() > best_vs_base) {
      best_vs_base = exp.proposed_app_speedup_vs_baseline();
      best_vs_base_app = name;
    }
  }
  std::cout << "max app speed-up vs SW: " << format_ratio(best_vs_sw)
            << "  (paper: 3.72x)\n";
  std::cout << "max app speed-up vs baseline: " << format_ratio(best_vs_base)
            << " on " << best_vs_base_app << "  (paper: 2.87x on jpeg)\n";
  bench::print_batch_metrics(runner, cache);
  return 0;
}
