// Fault-injection degradation campaign: sweeps fault rates across the four
// paper applications for the designed / baseline / crossbar variants and
// reports degradation curves — speedup vs fault rate, retransmissions,
// rerouted and degraded edges, corrupted-byte counts.
//
// Outputs (full mode):
//   bench_results/fault_campaign.csv   — one row per (app, variant, point)
//   bench_results/REPORT.md            — a "## Fault-injection degradation
//                                        campaign" section (replaced on
//                                        rerun, appended after report_all)
// Smoke mode (--smoke, used by CI): one app at two fault rates, written to
// bench_results/fault_smoke.json only; byte-identical across reruns and
// --threads values by the batch-runner determinism contract (every job's
// FaultSpec seed is job_seed(key), never time or thread id).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/interconnect_design.hpp"
#include "noc/topology.hpp"
#include "sys/crossbar_system.hpp"
#include "util/text.hpp"

namespace {

using namespace hybridic;
using util::decimal17;

/// One campaign point: a full run of one variant under one fault scenario.
struct CampaignRow {
  std::string app;
  std::string variant;   // designed | baseline | crossbar
  std::string scenario;  // sweep | nocrc | linkdown
  double rate = 0.0;
  double total_seconds = 0.0;
  faults::FaultStats stats;
};

CampaignRow run_point(apps::ProfileCache& cache, const std::string& app_name,
                      const std::string& variant,
                      const std::string& scenario,
                      const faults::FaultSpec& fault_spec, double rate) {
  const std::shared_ptr<const apps::ProfiledApp> app =
      cache.paper_app(app_name);
  const sys::AppSchedule schedule = app->schedule();
  sys::PlatformConfig config;
  config.faults = fault_spec;

  CampaignRow row;
  row.app = app_name;
  row.variant = variant;
  row.scenario = scenario;
  row.rate = rate;

  sys::RunResult result;
  if (variant == "designed") {
    // The design itself is laid out fault-free; faults strike the deployed
    // system at run time.
    const core::DesignResult design = core::design_interconnect(
        sys::make_design_input(schedule, sys::PlatformConfig{}));
    sys::PlatformConfig faulted = config;
    if ((scenario == "linkdown" || scenario == "onelink") &&
        design.noc.has_value()) {
      // linkdown severs every link of the first kernel attachment's router
      // (worst-case single-node failure: edges through it fall back to
      // bus-DMA round trips instead of hanging). onelink severs only the
      // first link so traffic reroutes in place around the dead segment.
      const noc::Mesh2D mesh{design.noc->mesh_width,
                             design.noc->mesh_height};
      for (const core::NocAttachment& a : design.noc->attachments) {
        if (a.kind != core::NocNodeKind::kKernel) {
          continue;
        }
        for (const noc::PortDir dir :
             {noc::PortDir::kNorth, noc::PortDir::kEast,
              noc::PortDir::kSouth, noc::PortDir::kWest}) {
          if (const auto n = mesh.neighbor(a.node, dir)) {
            faulted.faults.dead_links.push_back({a.node, *n});
            if (scenario == "onelink") {
              break;
            }
          }
        }
        break;
      }
    }
    result = sys::run_designed(schedule, design, faulted);
  } else if (variant == "baseline") {
    result = sys::run_baseline(schedule, config);
  } else {
    result = sys::run_crossbar_system(schedule, config);
  }
  row.total_seconds = result.total_seconds;
  row.stats = result.fault_stats;
  return row;
}

std::string campaign_csv(const std::vector<CampaignRow>& rows) {
  std::ostringstream out;
  out << "app,variant,scenario,rate,total_s,slowdown_vs_clean,"
         "flits_corrupted,retransmits,give_ups,messages_lost,bus_errors,"
         "bus_retries,bus_stalls,mem_bitflips,corrupted_bytes,"
         "degraded_edges,reroutes\n";
  const auto clean_of = [&rows](const CampaignRow& row) {
    for (const CampaignRow& other : rows) {
      if (other.app == row.app && other.variant == row.variant &&
          other.scenario == "sweep" && other.rate == 0.0) {
        return other.total_seconds;
      }
    }
    return row.total_seconds;
  };
  for (const CampaignRow& row : rows) {
    out << row.app << ',' << row.variant << ',' << row.scenario << ','
        << decimal17(row.rate) << ',' << decimal17(row.total_seconds) << ','
        << decimal17(row.total_seconds / clean_of(row)) << ','
        << row.stats.flits_corrupted << ','
        << row.stats.packets_retransmitted << ','
        << row.stats.retransmit_give_ups << ','
        << row.stats.messages_lost << ',' << row.stats.bus_errors << ','
        << row.stats.bus_retries << ',' << row.stats.bus_stalls << ','
        << row.stats.mem_bitflips << ',' << row.stats.corrupted_bytes << ','
        << row.stats.degraded_edges << ',' << row.stats.noc_reroutes
        << '\n';
  }
  return out.str();
}

const char kSectionMarker[] = "## Fault-injection degradation campaign";

std::string campaign_markdown(const std::vector<CampaignRow>& rows,
                              const std::vector<double>& rates) {
  std::ostringstream md;
  md << kSectionMarker << "\n\n";
  md << "Per-event fault rate applied to every class (flit corruption, bus "
        "errors/stalls, memory bit flips) with CRC retransmission and bus "
        "retries on. Cells are slowdown vs the same variant's fault-free "
        "run (1.00 = no degradation).\n\n";
  md << "| app | variant |";
  for (const double rate : rates) {
    md << " r=" << rate << " |";
  }
  md << " retransmits@max | corrupted B@max |\n|---|---|";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    md << "---|";
  }
  md << "---|---|\n";
  const auto find = [&rows](const std::string& app,
                            const std::string& variant, double rate) {
    for (const CampaignRow& row : rows) {
      if (row.app == app && row.variant == variant &&
          row.scenario == "sweep" && row.rate == rate) {
        return &row;
      }
    }
    return static_cast<const CampaignRow*>(nullptr);
  };
  for (const auto& app : apps::paper_app_names()) {
    for (const std::string variant : {"designed", "baseline", "crossbar"}) {
      const CampaignRow* clean = find(app, variant, 0.0);
      if (clean == nullptr) {
        continue;
      }
      md << "| " << app << " | " << variant << " |";
      for (const double rate : rates) {
        const CampaignRow* row = find(app, variant, rate);
        md << ' '
           << (row != nullptr
                   ? format_fixed(row->total_seconds / clean->total_seconds,
                                  3)
                   : std::string("—"))
           << " |";
      }
      const CampaignRow* worst = find(app, variant, rates.back());
      md << ' ' << (worst ? worst->stats.packets_retransmitted : 0) << " | "
         << (worst ? worst->stats.corrupted_bytes : 0) << " |\n";
    }
  }

  md << "\nResilience scenarios (designed system):\n\n";
  md << "| app | scenario | slowdown | degraded edges | reroutes | "
        "corrupted B |\n|---|---|---|---|---|---|\n";
  for (const CampaignRow& row : rows) {
    if (row.scenario == "sweep") {
      continue;
    }
    const CampaignRow* clean = find(row.app, row.variant, 0.0);
    md << "| " << row.app << " | "
       << (row.scenario == "nocrc"      ? "no CRC @ r=1e-3"
           : row.scenario == "onelink" ? "single link failure (reroute)"
                                       : "kernel router isolated (degrade)")
       << " | "
       << (clean != nullptr
               ? format_fixed(row.total_seconds / clean->total_seconds, 3)
               : std::string("—"))
       << " | " << row.stats.degraded_edges << " | "
       << row.stats.noc_reroutes << " | " << row.stats.corrupted_bytes
       << " |\n";
  }
  md << "\nFull per-point counters: `bench_results/fault_campaign.csv`.\n";
  return md.str();
}

std::string smoke_json(const std::vector<CampaignRow>& rows) {
  std::ostringstream out;
  out << "{\n  \"campaign\": \"smoke\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CampaignRow& row = rows[i];
    out << "    {\"app\": \"" << row.app << "\", \"variant\": \""
        << row.variant << "\", \"rate\": " << decimal17(row.rate)
        << ", \"total_seconds\": " << decimal17(row.total_seconds)
        << ", \"flits_corrupted\": " << row.stats.flits_corrupted
        << ", \"retransmits\": " << row.stats.packets_retransmitted
        << ", \"bus_errors\": " << row.stats.bus_errors
        << ", \"bus_retries\": " << row.stats.bus_retries
        << ", \"mem_bitflips\": " << row.stats.mem_bitflips
        << ", \"corrupted_bytes\": " << row.stats.corrupted_bytes << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::SweepArgs options = bench::parse_sweep_args(argc, argv);
  apps::ProfileCache cache;
  sys::BatchRunner runner{options.threads};

  const std::vector<double> rates =
      options.smoke ? std::vector<double>{1e-3, 1e-2}
                    : std::vector<double>{0.0, 1e-4, 1e-3, 1e-2};
  const std::vector<std::string> app_names =
      options.smoke ? std::vector<std::string>{"canny"}
                    : apps::paper_app_names();
  const std::vector<std::string> variants =
      options.smoke ? std::vector<std::string>{"designed"}
                    : std::vector<std::string>{"designed", "baseline",
                                               "crossbar"};

  std::vector<sys::BatchRunner::Job<CampaignRow>> jobs;
  const auto add_job = [&](const std::string& app,
                           const std::string& variant,
                           const std::string& scenario, double rate) {
    const std::string key = "fault/" + app + "/" + variant + "/" +
                            scenario + "/" + decimal17(rate);
    jobs.push_back({key, [&cache, app, variant, scenario,
                          rate](sys::JobContext& ctx) {
                      faults::FaultSpec spec =
                          faults::FaultSpec::at_rate(rate, ctx.seed);
                      if (scenario == "nocrc") {
                        spec.resilience.noc_crc = false;
                      }
                      return run_point(cache, app, variant, scenario, spec,
                                       rate);
                    }});
  };
  for (const std::string& app : app_names) {
    for (const std::string& variant : variants) {
      for (const double rate : rates) {
        add_job(app, variant, "sweep", rate);
      }
    }
    if (!options.smoke) {
      add_job(app, "designed", "nocrc", 1e-3);
      add_job(app, "designed", "onelink", 0.0);
      add_job(app, "designed", "linkdown", 0.0);
    }
  }
  const std::vector<CampaignRow> rows =
      bench::run_prewarmed(cache, runner, app_names, std::move(jobs));

  if (options.smoke) {
    const std::string path = bench::results_path("fault_smoke.json");
    std::ofstream{path} << smoke_json(rows);
    std::cout << "wrote " << path << " (" << rows.size() << " points)\n";
  } else {
    std::ofstream{bench::csv_path("fault_campaign")} << campaign_csv(rows);
    bench::patch_report_section(kSectionMarker,
                                campaign_markdown(rows, rates));
    std::cout << "wrote bench_results/fault_campaign.csv (" << rows.size()
              << " points) and the REPORT.md campaign section\n";
  }
  bench::print_batch_metrics(runner, cache);
  return 0;
}
